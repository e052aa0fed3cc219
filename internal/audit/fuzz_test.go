package audit

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"cooper/internal/telemetry"
)

// FuzzReplay feeds arbitrary event streams, decoded from JSONL, to the
// auditor: it must not panic, Replay must equal Feed called event by
// event followed by Finish (with OnViolation seeing every violation, in
// order), and two replays of one input must agree. The seeds are the
// audit tests' logs, in-process and wire, repair and full, clean and
// violating.
func FuzzReplay(f *testing.F) {
	encode := func(events []telemetry.Event) []byte {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for _, e := range events {
			if err := enc.Encode(e); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	wireFull := &wireLog{}
	wireFull.register(0, 0, 1, 2, 3)
	wireFull.add(telemetry.Event{Type: telemetry.EventEpochStart, Epoch: 0, Agent: -1, Partner: -1, Value: 4})
	wireFull.snapshot(0, 0, []int{0, 1, 2, 3})
	wireFull.pair(0, 0, 1)
	wireFull.pair(0, 2, 3)
	wireFull.register(0, 4)
	wireFull.reap(0, 3)
	wireFull.rematchRound(0, 1, "full", 4, `{"joined":[4],"departed":[3]}`)
	wireFull.pair(0, 0, 1)
	wireFull.pair(0, 2, 4)
	wireFull.add(telemetry.Event{Type: telemetry.EventEpochEnd, Epoch: 0, Agent: -1, Partner: -1,
		Value: (pen(0, 1) + pen(1, 0) + pen(2, 4) + pen(4, 2)) / 4})
	coreRepair := coreBase()
	coreRepair.coreEpoch(1, []int{0, 1, 2, 4}, "repair", `{"joined":[4],"departed":[3],"neighborhood":[2,4]}`,
		[][2]int{{0, 1}, {2, 4}})
	coreBad := coreBase()
	coreBad.coreEpoch(1, []int{0, 1, 2, 3}, "repair", `{"neighborhood":[2,3]}`, [][2]int{{0, 3}, {1, 2}})
	for _, l := range []*wireLog{
		cleanLog(), shardedEpoch(), repairEpoch(), wireFull, coreBase(), coreRepair, coreBad,
		wireRepair(`{"joined":[4],"neighborhood":[2,4]}`, 5, func(l *wireLog) { l.pair(0, 2, 4) }, 0),
		wireRepair(`{"neighborhood":[2]}`, 3, func(*wireLog) {}, 0),
	} {
		f.Add(encode(l.events))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		events, _ := telemetry.ReadEvents(bytes.NewReader(data))
		for _, opts := range []Options{{}, {Alpha: 0, ForceAlpha: true}} {
			rep := Replay(events, opts)
			if again := Replay(events, opts); !reflect.DeepEqual(rep, again) {
				t.Fatalf("two replays differ:\n%+v\n%+v", rep, again)
			}
			var seen []Violation
			opts.OnViolation = func(v Violation) { seen = append(seen, v) }
			a := New(opts)
			for _, e := range events {
				a.Feed(e)
			}
			fed := a.Finish()
			if !reflect.DeepEqual(rep, fed) {
				t.Fatalf("Replay and Feed+Finish differ:\n%+v\n%+v", rep, fed)
			}
			if !reflect.DeepEqual(seen, rep.Violations) {
				t.Fatalf("OnViolation saw %v, the report holds %v", seen, rep.Violations)
			}
		}
	})
}
