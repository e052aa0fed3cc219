package telemetry

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
)

// Snapshot sources: which layer emitted an EpochSnapshot. The auditor's
// accounting rules differ per source — wire epochs report mean predicted
// penalty in epoch_end.Value, in-process epochs report mean true penalty
// in Value and mean predicted in Predicted.
const (
	// SnapshotSourceWire marks epochs run by the netproto coordinator:
	// agents are wire AgentIDs with registered/reaped lifecycle events.
	SnapshotSourceWire = "wire"
	// SnapshotSourceCore marks epochs run by the in-process framework:
	// agents are epoch-local indices 0..n-1 with no lifecycle events.
	SnapshotSourceCore = "core"
)

// EpochSnapshot is the payload of an epoch_snapshot event: everything an
// offline auditor needs to recompute the epoch's penalties, coverage, and
// blocking pairs from the log alone. It is marshaled into Event.Data as
// JSON; Go's float64 encoding round-trips bit-for-bit, so penalties
// recomputed from a parsed snapshot equal the live ones exactly.
type EpochSnapshot struct {
	// Epoch is the 0-based epoch the snapshot pins, matching the event's
	// Epoch field.
	Epoch int `json:"epoch"`
	// Source is SnapshotSourceWire or SnapshotSourceCore.
	Source string `json:"source"`
	// Policy is the colocation policy's paper abbreviation (GR, SMR, ...).
	Policy string `json:"policy"`
	// Seed is the run's RNG seed.
	Seed int64 `json:"seed"`
	// Alpha is the stability contract recorded for auditors: when >= 0,
	// the matching must admit no blocking pair in which both agents gain
	// strictly more than Alpha (the paper's Figure 10 criterion).
	// Negative means no contract — blocking pairs are reported, not
	// flagged (the baselines GR/CO/TH promise no stability, and the
	// partition-based marriage policies are stable only within their
	// partition).
	Alpha float64 `json:"alpha"`
	// Agents is the epoch population in session order: wire AgentIDs for
	// netproto epochs, 0..n-1 for in-process epochs. Session order
	// matters — epoch accounting sums penalties in it, and the auditor
	// replays the sum in the same order to compare bit-for-bit.
	Agents []int `json:"agents"`
	// Jobs[i] is the job name Agents[i] runs, indexing into Catalog.
	Jobs []string `json:"jobs"`
	// Catalog names the rows/columns of Matrix.
	Catalog []string `json:"catalog"`
	// Shards is the shard count the epoch's market was cleared with; zero
	// or one means the single unsharded market (the field predates the
	// sharded market in old logs, so zero is the compatible default).
	Shards int `json:"shards,omitempty"`
	// Kernel names what produced Matrix: "oracle" or "flat", the exact
	// prediction kernel. Empty in logs that predate the field.
	Kernel string `json:"kernel,omitempty"`
	// Matrix is the job-level predicted penalty matrix: Matrix[i][j] is
	// catalog job i's penalty when colocated with catalog job j. The
	// agent-level penalty of a pair is the matrix entry for their jobs,
	// which is how the market itself reads it.
	Matrix [][]float64 `json:"matrix"`
	// PopDigest and MatrixDigest fingerprint Agents+Jobs and
	// Catalog+Matrix. Auditors recompute them to detect a tampered
	// payload, and -diff users can eyeball two logs' digests without
	// parsing matrices.
	PopDigest    string `json:"pop_digest"`
	MatrixDigest string `json:"matrix_digest"`
}

// PopulationDigest fingerprints a roster: agent IDs with their jobs, in
// session order. Deterministic across runs and platforms.
func PopulationDigest(agents []int, jobs []string) string {
	h := sha256.New()
	var buf [8]byte
	for i, a := range agents {
		binary.LittleEndian.PutUint64(buf[:], uint64(a))
		h.Write(buf[:])
		if i < len(jobs) {
			h.Write([]byte(jobs[i]))
		}
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// PenaltyMatrixDigest fingerprints a job-level penalty matrix and its
// catalog, hashing exact float64 bits so two matrices digest equal iff
// they are bit-identical.
func PenaltyMatrixDigest(catalog []string, matrix [][]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, name := range catalog {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	for _, row := range matrix {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Event seals the snapshot into an epoch_snapshot flight-recorder event,
// computing the digests from the payload's own contents.
func (s EpochSnapshot) Event() Event {
	s.PopDigest = PopulationDigest(s.Agents, s.Jobs)
	s.MatrixDigest = PenaltyMatrixDigest(s.Catalog, s.Matrix)
	data, err := json.Marshal(s)
	if err != nil {
		// Only unmarshalable floats (NaN/Inf penalties) can land here; an
		// unparseable payload is still a recorded, auditable fact.
		data = []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return Event{
		Type:  EventEpochSnapshot,
		Epoch: s.Epoch,
		Agent: -1, Partner: -1,
		Value: float64(len(s.Agents)),
		Data:  string(data),
	}
}

// SnapshotPayload parses an epoch_snapshot event's Data back into the
// typed payload.
func (e Event) SnapshotPayload() (*EpochSnapshot, error) {
	if e.Type != EventEpochSnapshot {
		return nil, fmt.Errorf("telemetry: %s event has no snapshot payload", e.Type)
	}
	var s EpochSnapshot
	if err := json.Unmarshal([]byte(e.Data), &s); err != nil {
		return nil, fmt.Errorf("telemetry: parsing epoch_snapshot payload: %w", err)
	}
	return &s, nil
}
