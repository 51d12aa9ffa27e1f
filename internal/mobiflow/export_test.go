package mobiflow

// MinRecordBytes exposes the least a record takes in a block to the
// external tests, which bound decoded slices by it.
const MinRecordBytes = minRecordBytes
