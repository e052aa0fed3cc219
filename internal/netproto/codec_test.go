package netproto

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cooper/internal/policy"
	"cooper/internal/telemetry"
)

// jsonLine is what json.Encoder writes for m.
func jsonLine(m *Message) ([]byte, error) {
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(m)
	return b.Bytes(), err
}

// checkEncode holds appendMessage to json.Encoder: the same error-nil-ness
// and, on success, the same bytes.
func checkEncode(t testing.TB, m *Message) {
	t.Helper()
	want, wantErr := jsonLine(m)
	got, gotErr := appendMessage(nil, m)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%+v: appendMessage err = %v, json.Encoder err = %v", *m, gotErr, wantErr)
	}
	if wantErr == nil && !bytes.Equal(got, want) {
		t.Fatalf("%+v:\nappendMessage %s\njson.Encoder  %s", *m, got, want)
	}
}

// checkDecode holds parseMessage to json.Unmarshal on one input: the same
// error-nil-ness and, on success, the same message, which appendMessage
// then re-encodes as json.Encoder would.
func checkDecode(t testing.TB, line []byte) {
	t.Helper()
	var got, want Message
	gotErr := parseMessage(line, &got)
	wantErr := json.Unmarshal(line, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%q: parseMessage err = %v, json.Unmarshal err = %v", line, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if got != want {
		t.Fatalf("%q:\nparseMessage   %+v\njson.Unmarshal %+v", line, got, want)
	}
	checkEncode(t, &want)
}

// FuzzMessageCodec is differential against encoding/json: for any line,
// parseMessage and json.Unmarshal agree on error-nil-ness and on the
// decoded Message; every decoded message encodes to json.Encoder's bytes;
// and a line read off the wire is either decoded the same way or, past
// maxLine, rejected as too long.
func FuzzMessageCodec(f *testing.F) {
	for _, l := range transcriptLines(f) {
		f.Add(l)
	}
	for _, s := range []string{
		``, `{}`, `null`, `[]`, `"assess"`, `{"type":"assess"`, `{"type":"assess"}{"type":"assess"}`,
		" {\"type\" : \"assess\" ,\t\"seq\":1 } ", "{\"type\":\"assess\"}\r",
		`{"type":"as\u0073ess","job":"a\"b\\c\/d"}`,
		`{"type":"assess","unknown":[1,{"x":null}],"seq":2}`,
		`{"type":"assess","seq":1,"seq":2}`, `{"TYPE":"assess","Seq":3,"PARTNER_ID":4}`,
		`{"type":"assess","ſeq":5}`, `{"trace_ctk":"x"}`,
		`{"seq":-0}`, `{"seq":1e2}`, `{"seq":1.0}`, `{"seq":01}`, `{"seq":-}`, `{"seq":null}`,
		`{"type":null}`, `{"seq":true}`, `{"seq":"1"}`, `{"seq":1,}`, `{,"seq":1}`,
		`{"seq":99999999999999999999}`, `{"seq":-999999999999999999}`, `{"seq":9223372036854775807}`,
		`{"predicted_penalty":-0}`, `{"predicted_penalty":1E+2}`, `{"predicted_penalty":1e400}`,
		`{"predicted_penalty":.5}`, `{"predicted_penalty":5.}`, `{"mean_penalty":1e-7}`,
		`{"mean_penalty":4.9e-324}`, `{"predicted_penalty":1e}`,
		`{"job":"dédup"}`, `{"job":"<a>&b"}`, `{"job":"\u003cb\u003e"}`, `{"error":"\u2028"}`,
		"{\"job\":\"\xff\"}", "{\"job\":\"a\x01\"}", "{\"job\":\"\x7f\"}",
		`{"type":"assess","error":"` + strings.Repeat("x", 5<<10) + `"}`,
		`{"error":"` + strings.Repeat("y", maxLine-13) + `"}`,
		`{"error":"` + strings.Repeat("y", maxLine-12) + `"}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecode(t, line)
		if bytes.IndexByte(line, '\n') >= 0 {
			return
		}
		var got Message
		err := readMessage(newLineReader(bytes.NewReader(append(line, '\n'))), &got)
		if len(line)+1 > maxLine {
			if err != errLineTooLong {
				t.Fatalf("%d-byte line: err = %v, want errLineTooLong", len(line), err)
			}
			return
		}
		var want Message
		if wantErr := json.Unmarshal(line, &want); (err == nil) != (wantErr == nil) || (err == nil && got != want) {
			t.Fatalf("%q: readMessage %+v, %v; json.Unmarshal %+v, %v", line, got, err, want, wantErr)
		}
	})
}

// transcriptLines returns every wire line of the golden transcripts,
// without direction markers.
func transcriptLines(t testing.TB) [][]byte {
	var lines [][]byte
	for _, name := range []string{"batch.transcript", "rematch.transcript"} {
		data, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range bytes.Split(data, []byte("\n")) {
			if bytes.HasPrefix(l, []byte("> ")) || bytes.HasPrefix(l, []byte("< ")) {
				lines = append(lines, l[2:])
			}
		}
	}
	return lines
}

// TestMessageCodecCoversEveryField sets every Message field, found by
// reflection, to values of its kind and holds the codec to encoding/json
// on each. A plain value must also survive the canonical fast path, so a
// field added to Message without codec support fails here.
func TestMessageCodecCoversEveryField(t *testing.T) {
	strs := []string{"dedup", "", "a<b>&c", `q"\`, "dédup", "\x01\x7f", "\xff", "\u2028"}
	ints := []int64{7, 0, -1, math.MaxInt64, math.MinInt64}
	floats := []float64{0.0731, 0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, 2.5e-10, 5e-324,
		1e20, 1e21, 123456789.125, -0.5, math.MaxFloat64, math.Inf(1), math.NaN()}
	typ := reflect.TypeOf(Message{})
	var all Message
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var vals []reflect.Value
		switch f.Type.Kind() {
		case reflect.String:
			for _, s := range strs {
				vals = append(vals, reflect.ValueOf(s))
			}
		case reflect.Int:
			for _, v := range ints {
				vals = append(vals, reflect.ValueOf(int(v)))
			}
		case reflect.Float64:
			for _, v := range floats {
				vals = append(vals, reflect.ValueOf(v))
			}
		default:
			t.Fatalf("Message.%s has kind %s, which the codec does not encode", f.Name, f.Type.Kind())
		}
		reflect.ValueOf(&all).Elem().Field(i).Set(vals[0])
		for _, v := range vals {
			var m Message
			reflect.ValueOf(&m).Elem().Field(i).Set(v)
			checkEncode(t, &m)
			if line, err := appendMessage(nil, &m); err == nil {
				checkDecode(t, line)
			}
		}
	}
	checkEncode(t, &all)
	line, err := appendMessage(nil, &all)
	if err != nil {
		t.Fatal(err)
	}
	var fast Message
	if !parseCanonical(bytes.TrimSuffix(line, []byte("\n")), &fast) || fast != all {
		t.Fatalf("fast path does not decode every field of %s:\n got %+v\nwant %+v", line, fast, all)
	}
}

// TestAppendMessageAllocatesNothing: encoding into a reused buffer is
// allocation-free for the messages an epoch sends.
func TestAppendMessageAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 256)
	for _, m := range codecMessages() {
		allocs := testing.AllocsPerRun(100, func() {
			buf, _ = appendMessage(buf[:0], &m)
		})
		if allocs != 0 {
			t.Errorf("%s: appendMessage allocated %.1f times per message", m.Type, allocs)
		}
	}
}

// recordingConn records the payload of every Write.
type recordingConn struct {
	net.Conn
	mu     sync.Mutex
	writes [][]byte
}

func (c *recordingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), p...))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// TestEveryMessageIsOneWrite: the registration reply, an assignment, a
// pre-encoded summary and a client assessment each leave in exactly one
// conn.Write holding exactly one line, so the fault injector's one draw per
// Write is one draw per message.
func TestEveryMessageIsOneWrite(t *testing.T) {
	client, server := net.Pipe()
	go io.Copy(io.Discard, client)
	rec := &recordingConn{Conn: server}
	srv := &Server{}
	sess := &session{conn: rec, id: 3, needsReply: true}
	if err := srv.send(sess, Message{Type: "assignment", Seq: 1, PartnerID: 4, PartnerJob: "dedup", PredictedPenalty: 0.25}); err != nil {
		t.Fatal(err)
	}
	summary, _ := appendMessage(nil, &Message{Type: "summary", PartnerID: -1, MeanPenalty: 0.1})
	if err := srv.sendLine(sess, "summary", summary); err != nil {
		t.Fatal(err)
	}
	c := &Client{conn: rec, TraceCtx: telemetry.NewSpanSeeded("t", 1).Context()}
	assess := c.assess(Message{Type: "assignment", Seq: 1, PartnerID: 4})
	if err := c.write(&assess); err != nil {
		t.Fatal(err)
	}
	server.Close()
	client.Close()
	want := []string{"registered", "assignment", "summary", "assess"}
	if len(rec.writes) != len(want) {
		t.Fatalf("%d writes for %d messages: %q", len(rec.writes), len(want), rec.writes)
	}
	for i, w := range rec.writes {
		var m Message
		if bytes.Count(w, []byte("\n")) != 1 || w[len(w)-1] != '\n' || json.Unmarshal(w, &m) != nil || m.Type != want[i] {
			t.Errorf("write %d = %q, want one %q line", i, w, want[i])
		}
	}
}

// TestLineCapRejectsLongLines: a register line past the 4 KiB cap gets its
// conn closed and no session, a live session that sends one is reaped like
// any malformed message, the server keeps serving everyone else, and both
// rejections are counted.
func TestLineCapRejectsLongLines(t *testing.T) {
	srv, _ := testServer(t, 2, policy.Greedy{})
	srv.Metrics = telemetry.NewRegistry()
	addrCh := make(chan string, 1)
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- srv.Serve("127.0.0.1:0", func(a string) { addrCh <- a })
	}()
	addr := <-addrCh
	if _, ok := srv.Metrics.Snapshot().Counters["net.rejected.line_too_long"]; !ok {
		t.Error("net.rejected.line_too_long is not pre-created at Serve start")
	}
	long := strings.Repeat("x", 5<<10)

	bad, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	if _, err := bad.Write([]byte(`{"type":"register","job":"` + long + `"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, bad); isTimeout(err) {
		t.Fatalf("oversized register: conn not closed by the server: %v", err)
	}

	raw := rawDial(t, addr, "dedup")
	defer raw.conn.Close()
	done := make(chan error, 1)
	var summary Message
	go func() {
		c, err := Dial(addr, "correlation")
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		_, summary, err = c.RunEpoch()
		done <- err
	}()
	if m := raw.read(); m.Type != "assignment" {
		t.Fatalf("raw agent got %q, want assignment", m.Type)
	}
	if _, err := raw.conn.Write([]byte(`{"type":"assess","action":"participate","error":"` + long + `"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("well-behaved agent: %v", err)
	}
	if err := <-srvErr; err != nil {
		t.Fatalf("server: %v", err)
	}
	if summary.Participating != 1 {
		t.Errorf("summary participating = %d, want 1 (the survivor)", summary.Participating)
	}
	snap := srv.Metrics.Snapshot()
	if got := snap.Counter("net.rejected.line_too_long"); got != 2 {
		t.Errorf("net.rejected.line_too_long = %d, want 2", got)
	}
	if got := snap.Counter("net.reaped"); got != 1 {
		t.Errorf("net.reaped = %d, want 1", got)
	}
	if got := snap.Counter("net.msg_in.register"); got != 2 {
		t.Errorf("net.msg_in.register = %d, want 2 (the oversized one never parsed)", got)
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// codecMessages are an epoch's two hot messages: an assignment push and
// the assessment that answers it.
func codecMessages() []Message {
	return []Message{
		{Type: "assignment", Seq: 17, PartnerID: 531, PartnerJob: "correlation", PredictedPenalty: 0.0731, Shard: 3},
		{Type: "assess", Action: "participate", Seq: 17, TraceContext: "96d90b005fa2c370-039f0db37f5851e9"},
	}
}

// BenchmarkMessageCodec encodes and decodes one assignment line and one
// assess line, encoding/json beside the codec.
func BenchmarkMessageCodec(b *testing.B) {
	for _, m := range codecMessages() {
		line, _ := appendMessage(nil, &m)
		b.Run(m.Type+"/encode/json", func(b *testing.B) {
			b.ReportAllocs()
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			for i := 0; i < b.N; i++ {
				buf.Reset()
				enc.Encode(&m)
			}
		})
		b.Run(m.Type+"/encode/codec", func(b *testing.B) {
			b.ReportAllocs()
			var buf []byte
			for i := 0; i < b.N; i++ {
				buf, _ = appendMessage(buf[:0], &m)
			}
		})
		b.Run(m.Type+"/decode/json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var got Message
				json.Unmarshal(line, &got)
			}
		})
		b.Run(m.Type+"/decode/codec", func(b *testing.B) {
			b.ReportAllocs()
			rd := bufio.NewReader(nil)
			src := bytes.NewReader(line)
			for i := 0; i < b.N; i++ {
				src.Reset(line)
				rd.Reset(src)
				var got Message
				readMessage(rd, &got)
			}
		})
	}
}
