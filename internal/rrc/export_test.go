package rrc

// AllMessages returns one populated instance of every message type.
var AllMessages = allMessages
