package prov

import (
	"math"
	"strconv"
	"time"
	"unicode/utf8"
)

// appendJSON appends the event to b byte for byte as json.Marshal(&ev)
// renders it — field order, omitempty, HTML-safe string escaping, float
// and RFC 3339 formatting — without reflection or intermediate buffers,
// so the ledger writer can persist from one reused buffer. ok is false
// exactly where json.Marshal returns an error: a non-finite Score or
// Threshold, or an At that RFC 3339 cannot express. The stored form is
// read back with json.Unmarshal (ReadChain, xsec-audit, ImportChains), so
// it is deliberately not Event's MarshalJSON: only persistLocked uses it,
// and TestAppendJSONMatchesMarshal pins the two against each other.
func (ev *Event) appendJSON(b []byte) (_ []byte, ok bool) {
	b = append(b, `{"chain":{"node":`...)
	b = appendJSONString(b, ev.Chain.Node)
	b = append(b, `,"sn":`...)
	b = strconv.AppendUint(b, ev.Chain.SN, 10)
	b = append(b, `},"kind":`...)
	b = appendJSONString(b, ev.Kind.String())
	b = append(b, `,"at":"`...)
	// time.Time.MarshalJSON's strictness: a four-digit year and a zone
	// offset under a day.
	if y := ev.At.Year(); y < 0 || y > 9999 {
		return b, false
	}
	if _, off := ev.At.Zone(); off <= -24*3600 || off >= 24*3600 {
		return b, false
	}
	b = ev.At.AppendFormat(b, time.RFC3339Nano)
	b = append(b, '"')

	b = appendUintField(b, `,"seq_first":`, ev.SeqFirst)
	b = appendUintField(b, `,"seq_last":`, ev.SeqLast)
	b = appendUintField(b, `,"records":`, uint64(ev.Records))
	b = appendUintField(b, `,"count":`, uint64(ev.Count))
	if ev.Digest != 0 {
		b = append(ev.Digest.appendHex(append(b, `,"digest":"`...)), '"')
	}
	b = appendStringField(b, `,"model":`, ev.Model)
	if b, ok = appendFloatField(b, `,"score":`, ev.Score); !ok {
		return b, false
	}
	if b, ok = appendFloatField(b, `,"threshold":`, ev.Threshold); !ok {
		return b, false
	}
	if ev.Flagged {
		b = append(b, `,"flagged":true`...)
	}
	b = appendStringField(b, `,"label":`, ev.Label)
	b = appendStringField(b, `,"action":`, ev.Action)
	b = appendStringField(b, `,"target":`, ev.Target)
	b = appendUintField(b, `,"ue_id":`, ev.UEID)
	b = appendUintField(b, `,"action_id":`, ev.ActionID)
	b = appendStringField(b, `,"note":`, ev.Note)
	return append(b, '}'), true
}

func appendUintField(b []byte, name string, v uint64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendUint(append(b, name...), v, 10)
}

func appendStringField(b []byte, name, v string) []byte {
	if v == "" {
		return b
	}
	return appendJSONString(append(b, name...), v)
}

// appendFloatField renders an omitempty float64 as encoding/json does:
// shortest round-trip digits, exponent form only below 1e-6 or from 1e21,
// and a two-digit exponent's leading zero trimmed.
func appendFloatField(b []byte, name string, v float64) (_ []byte, ok bool) {
	if v == 0 {
		return b, true
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return b, false
	}
	b = append(b, name...)
	format := byte('f')
	if abs := math.Abs(v); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// appendJSONString quotes s as encoding/json does with HTML escaping on:
// ", \ and control characters escaped, <, > and & as \u00XX, invalid UTF-8
// as the six characters \ufffd, and U+2028/U+2029 escaped for JSONP's sake.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case r == utf8.RuneError && size == 1:
				b = append(append(b, s[start:i]...), `\ufffd`...)
				start = i + size
			case r == '\u2028' || r == '\u2029':
				b = append(append(b, s[start:i]...), `\u202`...)
				b = append(b, hex[r&0xf])
				start = i + size
			}
			i += size
			continue
		}
		if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		b = append(b, s[start:i]...)
		switch c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default:
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
		i++
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
