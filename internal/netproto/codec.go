package netproto

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// maxLine caps one wire line, newline included. It is bufio's default
// buffer: a line is framed in the reader's buffer or not at all, so no
// connection's read state grows past it.
const maxLine = 4096

// errLineTooLong is a line that does not fit maxLine. The rest of the line
// is still unread, so the connection is unusable afterwards.
var errLineTooLong = errors.New("netproto: line exceeds 4096 bytes")

// newLineReader frames r's bytes into lines of at most maxLine.
func newLineReader(r io.Reader) *bufio.Reader { return bufio.NewReaderSize(r, maxLine) }

// readMessage reads one line from r and decodes it into *m. A final
// line with no newline is a torn message, not a message.
func readMessage(r *bufio.Reader, m *Message) error {
	line, err := r.ReadSlice('\n')
	switch {
	case err == bufio.ErrBufferFull:
		return errLineTooLong
	case err == io.EOF && len(line) > 0:
		return io.ErrUnexpectedEOF
	case err != nil:
		return err
	}
	return parseMessage(line, m)
}

// appendMessage appends m as one JSON line: byte for byte what
// json.Encoder writes for it, fields in declaration order, omitempty as
// tagged, floats and strings escaped the same way. A non-finite float is
// an error, as it is for json.Encoder, and appends nothing.
func appendMessage(dst []byte, m *Message) ([]byte, error) {
	for _, v := range [...]float64{m.PredictedPenalty, m.MeanPenalty} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return dst, fmt.Errorf("netproto: %q message carries non-finite %v", m.Type, v)
		}
	}
	dst = append(dst, `{"type":`...)
	dst = appendString(dst, m.Type)
	dst = appendStringField(dst, `,"job":`, m.Job)
	dst = appendIntField(dst, `,"agent_id":`, m.AgentID, false)
	dst = appendIntField(dst, `,"partner_id":`, m.PartnerID, false)
	dst = appendStringField(dst, `,"partner_job":`, m.PartnerJob)
	dst = appendFloatField(dst, `,"predicted_penalty":`, m.PredictedPenalty)
	dst = appendIntField(dst, `,"shard":`, m.Shard, true)
	dst = appendIntField(dst, `,"seq":`, m.Seq, true)
	dst = appendStringField(dst, `,"action":`, m.Action)
	dst = appendIntField(dst, `,"with":`, m.With, true)
	dst = appendFloatField(dst, `,"mean_penalty":`, m.MeanPenalty)
	dst = appendIntField(dst, `,"break_aways":`, m.BreakAways, true)
	dst = appendIntField(dst, `,"participating":`, m.Participating, true)
	dst = appendStringField(dst, `,"error":`, m.Error)
	dst = appendStringField(dst, `,"trace_ctx":`, m.TraceContext)
	return append(dst, "}\n"...), nil
}

func appendIntField(dst []byte, key string, v int, omitEmpty bool) []byte {
	if omitEmpty && v == 0 {
		return dst
	}
	return strconv.AppendInt(append(dst, key...), int64(v), 10)
}

func appendStringField(dst []byte, key, v string) []byte {
	if v == "" {
		return dst
	}
	return appendString(append(dst, key...), v)
}

// appendFloatField follows encoding/json's float rule: 'f', or 'e'
// outside [1e-6, 1e21), with a two-digit negative exponent trimmed to
// one (e-09 → e-9). Zero is omitted.
func appendFloatField(dst []byte, key string, v float64) []byte {
	if v == 0 {
		return dst
	}
	format := byte('f')
	if abs := math.Abs(v); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	dst = strconv.AppendFloat(append(dst, key...), v, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// appendString quotes s. Printable ASCII other than `"\<>&` is copied as
// is; any other string is quoted by json.Marshal, so escaping, HTML-safe
// escapes and invalid UTF-8 come out exactly as json.Encoder writes them.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// parseMessage decodes one line, trailing newline optional, into *m,
// which it zeroes first. It scans the shape appendMessage writes — a flat
// object with no whitespace, known keys, unescaped ASCII strings, plain
// numbers — and hands every other line to json.Unmarshal, so what it
// accepts, and what it decodes, is exactly what encoding/json would.
func parseMessage(line []byte, m *Message) error {
	*m = Message{}
	b := line
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
	}
	if parseCanonical(b, m) {
		return nil
	}
	// Decoding into a local keeps m off the heap on the fast path.
	var slow Message
	err := json.Unmarshal(line, &slow)
	*m = slow
	return err
}

// parseCanonical decodes b if it has the canonical shape, reporting
// whether it did; *m is garbage when it did not.
func parseCanonical(b []byte, m *Message) bool {
	n := len(b)
	if n < 2 || b[0] != '{' || b[n-1] != '}' {
		return false
	}
	if n == 2 {
		return true
	}
	for i := 1; ; {
		key, next, ok := scanString(b, i)
		if i = next; !ok || b[i] != ':' {
			return false
		}
		i++
		switch string(key) {
		case "type":
			m.Type, i, ok = scanValue(b, i)
		case "job":
			m.Job, i, ok = scanValue(b, i)
		case "agent_id":
			m.AgentID, i, ok = scanInt(b, i)
		case "partner_id":
			m.PartnerID, i, ok = scanInt(b, i)
		case "partner_job":
			m.PartnerJob, i, ok = scanValue(b, i)
		case "predicted_penalty":
			m.PredictedPenalty, i, ok = scanFloat(b, i)
		case "shard":
			m.Shard, i, ok = scanInt(b, i)
		case "seq":
			m.Seq, i, ok = scanInt(b, i)
		case "action":
			m.Action, i, ok = scanValue(b, i)
		case "with":
			m.With, i, ok = scanInt(b, i)
		case "mean_penalty":
			m.MeanPenalty, i, ok = scanFloat(b, i)
		case "break_aways":
			m.BreakAways, i, ok = scanInt(b, i)
		case "participating":
			m.Participating, i, ok = scanInt(b, i)
		case "error":
			m.Error, i, ok = scanValue(b, i)
		case "trace_ctx":
			m.TraceContext, i, ok = scanValue(b, i)
		default:
			return false // unknown or case-variant key: encoding/json decides
		}
		switch {
		case !ok:
			return false
		case b[i] == '}':
			return i == n-1
		case b[i] != ',':
			return false
		}
		i++
	}
}

// scanString reads the unescaped printable-ASCII string at b[i], returning
// its contents and the index after the closing quote. b ends in '}', so a
// successful scan always leaves a byte to look at.
func scanString(b []byte, i int) ([]byte, int, bool) {
	if b[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(b)-1; j++ {
		switch c := b[j]; {
		case c == '"':
			return b[i+1 : j], j + 1, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, i, false
		}
	}
	return nil, i, false
}

// vocabulary is the protocol's fixed strings: message types and actions.
var vocabulary = append(wireTypes[:], "participate", "break-away")

// scanValue reads a string value, returning the vocabulary's strings
// without allocating.
func scanValue(b []byte, i int) (string, int, bool) {
	s, i, ok := scanString(b, i)
	for _, w := range vocabulary {
		if string(s) == w {
			return w, i, ok
		}
	}
	return string(s), i, ok
}

// skipDigits returns the index past the run of digits at b[j].
func skipDigits(b []byte, j int) int {
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	return j
}

// skipInt returns the index past the JSON integer -?(0|[1-9][0-9]*) at
// b[i], or i when there is none.
func skipInt(b []byte, i int) int {
	j := i
	if b[j] == '-' {
		j++
	}
	k := skipDigits(b, j)
	if k == j || (b[j] == '0' && k > j+1) {
		return i
	}
	return k
}

// scanInt reads a JSON integer as encoding/json does; fractions,
// exponents and overflow are left to it.
func scanInt(b []byte, i int) (int, int, bool) {
	k := skipInt(b, i)
	v, err := strconv.Atoi(string(b[i:k]))
	return v, k, k > i && err == nil
}

// scanFloat reads a number in JSON's grammar and converts it as
// encoding/json does, with strconv.ParseFloat.
func scanFloat(b []byte, i int) (float64, int, bool) {
	k := skipInt(b, i)
	if k > i && b[k] == '.' {
		if k = skipDigits(b, k+1); b[k-1] == '.' {
			return 0, i, false
		}
	}
	if k > i && (b[k] == 'e' || b[k] == 'E') {
		j := k + 1
		if b[j] == '+' || b[j] == '-' {
			j++
		}
		if k = skipDigits(b, j); k == j {
			return 0, i, false
		}
	}
	v, err := strconv.ParseFloat(string(b[i:k]), 64)
	return v, k, k > i && err == nil
}
