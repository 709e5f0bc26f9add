// Package loadgen is the load-generation and soak-test subsystem of the
// serving stack: it turns internal/synth fleets into deterministic,
// seeded, time-ordered telemetry streams (with a configurable
// duplicate/out-of-order/corruption mix from internal/faultinject),
// drives them against internal/server over real HTTP with N concurrent
// clients, and records per-phase throughput, latency quantiles and an
// error taxonomy. On top of the driver, scenarios.go implements the
// scripted workloads cmd/diskload runs — steady-state soak,
// ramp-to-shed and a kill/warm-restart chaos schedule — each verified
// record-for-record against a shadow in-process monitor (verify.go).
//
// Everything downstream of the Seed is deterministic: two builds with
// the same WorkloadConfig produce byte-identical request bodies in the
// same order (Fingerprint proves it), and because each drive's records
// flow through exactly one client stream in arrival order, the final
// fleet state is independent of scheduling, concurrency and retries.
package loadgen

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"disksig/internal/dataset"
	"disksig/internal/faultinject"
	"disksig/internal/fleet"
	"disksig/internal/parallel"
	"disksig/internal/smart"
	"disksig/internal/synth"
	"disksig/internal/wire"
)

// Format selects the ingest wire format batches are prebuilt in. Both
// formats carry the same observations — the server decodes either into
// identical fleet.Observation values — so the final fleet state is
// format-independent; only the bytes (and therefore the workload
// fingerprint) differ.
type Format string

const (
	// FormatJSON is the {"records": [...]} JSON request body.
	FormatJSON Format = "json"
	// FormatBinary is the CRC-framed binary batch frame (internal/wire).
	FormatBinary Format = "binary"
)

// ParseFormat maps a flag value to a Format; "" means FormatJSON.
func ParseFormat(s string) (Format, error) {
	switch Format(s) {
	case "":
		return FormatJSON, nil
	case FormatJSON, FormatBinary:
		return Format(s), nil
	}
	return "", fmt.Errorf("loadgen: unknown format %q (want json or binary)", s)
}

// ContentType returns the Content-Type header value declaring the
// format on POST /v1/ingest.
func (f Format) ContentType() string {
	if f == FormatBinary {
		return wire.ContentType
	}
	return "application/json"
}

// WorkloadConfig parameterizes a synthetic telemetry workload. The zero
// value is not useful; DefaultWorkloadConfig fills in the fault mix and
// sizing used by the scripted scenarios.
type WorkloadConfig struct {
	// Seed drives fleet generation and every corruption decision. Equal
	// configs build byte-identical workloads.
	Seed int64
	// FleetSeedOffset is added to Seed for synth generation so the
	// replayed fleet is held out from a model trained on Seed itself.
	FleetSeedOffset int64
	// Scale selects the synth fleet preset the drives are drawn from.
	Scale synth.Scale
	// MaxFailed and MaxGood cap how many failed/good drives of the
	// generated fleet enter the workload.
	MaxFailed, MaxGood int
	// SerialPrefix and SerialSuffix frame every drive's serial number;
	// a suffix distinguishes repeated soak passes over the same fleet.
	SerialPrefix, SerialSuffix string
	// GarbleRate, DuplicateRate and ReorderRate are the per-record fault
	// probabilities (see faultinject.Config).
	GarbleRate, DuplicateRate, ReorderRate float64
	// BatchSize is the number of observations per ingest request.
	// <= 0 means 200.
	BatchSize int
	// Format is the wire format batch bodies are prebuilt in; the zero
	// value means FormatJSON.
	Format Format
	// Drift generates the fleet from synth.BackupWorkloadConfig instead
	// of the default mix: the failure-mode fractions flip toward
	// bad-sector failures, the cohort shift the drift scenario ingests
	// against models trained on the default mix.
	Drift bool
	// Mixed generates a heterogeneous HDD+SSD fleet
	// (synth.GenerateMixed) instead of the pure-HDD default; MaxFailed
	// and MaxGood then cap each class's population independently, so a
	// mixed workload always carries both classes.
	Mixed bool
}

// DefaultWorkloadConfig is the scenario workload: a held-out fleet of
// up to 15 failed and 40 good drives with a 2 % fault mix.
func DefaultWorkloadConfig(scale synth.Scale, seed int64) WorkloadConfig {
	return WorkloadConfig{
		Seed:            seed,
		FleetSeedOffset: 3000,
		Scale:           scale,
		MaxFailed:       15,
		MaxGood:         40,
		SerialPrefix:    "ld-",
		GarbleRate:      0.02,
		DuplicateRate:   0.02,
		ReorderRate:     0.02,
		BatchSize:       200,
	}
}

func (c WorkloadConfig) withDefaults() WorkloadConfig {
	if c.BatchSize <= 0 {
		c.BatchSize = 200
	}
	if c.Format == "" {
		c.Format = FormatJSON
	}
	return c
}

// Drive is one drive's post-fault-injection record sequence.
type Drive struct {
	Serial string
	// Class is the drive's device class, stamped on every observation
	// the drive emits (the zero value is HDD).
	Class   smart.DeviceClass
	Records []smart.Record
}

// Workload is a deterministic telemetry stream: a set of drives whose
// records are interleaved round-robin (the arrival pattern of a real
// fleet, batch boundaries cutting across drives while per-drive order
// holds) and split into client streams.
type Workload struct {
	cfg    WorkloadConfig
	Drives []Drive
}

// Batch is one ingest request: its observations (in wire-normalized
// form: every non-finite value is already NaN, exactly what the server
// decodes from a JSON null or an absent binary triple) and the prebuilt
// request body in the workload's format.
type Batch struct {
	// Stream and Index locate the batch: Index-th batch of its client
	// stream.
	Stream, Index int
	Obs           []fleet.Observation
	Body          []byte
	// ContentType declares Body's format on the wire; "" is treated as
	// "application/json" for hand-built batches.
	ContentType string
}

// BuildWorkload generates the synth fleet, applies the fault mix and
// returns the workload. Two calls with equal configs are identical.
func BuildWorkload(cfg WorkloadConfig) (*Workload, error) {
	cfg = cfg.withDefaults()
	gen := synth.DefaultConfig(cfg.Scale)
	if cfg.Drift {
		gen = synth.BackupWorkloadConfig(cfg.Scale)
	}
	gen.Seed = cfg.Seed + cfg.FleetSeedOffset
	var ds *dataset.Dataset
	var err error
	if cfg.Mixed {
		mixed := synth.DefaultMixedFleet(cfg.Scale).WithSeed(cfg.Seed + cfg.FleetSeedOffset)
		ds, err = synth.GenerateMixed(mixed)
	} else {
		ds, err = synth.Generate(gen)
	}
	if err != nil {
		return nil, fmt.Errorf("loadgen: generating workload fleet: %w", err)
	}
	var drives []Drive
	add := func(p *smart.Profile, serial string) {
		recs, _ := faultinject.CorruptRecords(p.Records, faultinject.Config{
			Seed:          parallel.DeriveSeed(gen.Seed, int64(p.DriveID)),
			GarbleRate:    cfg.GarbleRate,
			DuplicateRate: cfg.DuplicateRate,
			ReorderRate:   cfg.ReorderRate,
		})
		drives = append(drives, Drive{Serial: serial, Class: p.Class, Records: wireNormalize(recs)})
	}
	// Caps are per class so a mixed workload keeps both populations:
	// a global cap would fill up on the HDD profiles (generated first)
	// and silently drop every SSD.
	var nFailed, nGood [smart.NumClasses]int
	for _, p := range ds.Failed {
		if nFailed[p.Class] >= cfg.MaxFailed {
			continue
		}
		nFailed[p.Class]++
		add(p, fmt.Sprintf("%sfailed-%05d%s", cfg.SerialPrefix, p.DriveID, cfg.SerialSuffix))
	}
	for _, p := range ds.Good {
		if nGood[p.Class] >= cfg.MaxGood {
			continue
		}
		nGood[p.Class]++
		add(p, fmt.Sprintf("%sgood-%05d%s", cfg.SerialPrefix, p.DriveID, cfg.SerialSuffix))
	}
	return &Workload{cfg: cfg, Drives: drives}, nil
}

// WorkloadFromDrives wraps explicit drive record sequences, for tests
// and callers that build their own fleets.
func WorkloadFromDrives(drives []Drive, batchSize int) *Workload {
	for i := range drives {
		drives[i].Records = wireNormalize(drives[i].Records)
	}
	return &Workload{cfg: WorkloadConfig{BatchSize: batchSize}.withDefaults(), Drives: drives}
}

// wireNormalize maps every non-finite value to NaN, the wire round-trip
// the server performs (JSON carries null for a non-finite value, the
// decoder turns null back into NaN). Normalizing at build time means
// Batch.Obs is exactly what the store will be asked to ingest, so a
// shadow monitor fed Batch.Obs stays record-for-record comparable.
func wireNormalize(recs []smart.Record) []smart.Record {
	out := make([]smart.Record, len(recs))
	for i, r := range recs {
		for a := range r.Values {
			if math.IsInf(r.Values[a], 0) {
				r.Values[a] = math.NaN()
			}
		}
		out[i] = r
	}
	return out
}

// WithSuffix derives a workload whose drives carry an extra serial
// suffix — fresh drives with the same telemetry, the unit of a repeated
// soak pass. Record storage is shared; serials are new.
func (w *Workload) WithSuffix(suffix string) *Workload {
	drives := make([]Drive, len(w.Drives))
	for i, d := range w.Drives {
		drives[i] = Drive{Serial: d.Serial + suffix, Class: d.Class, Records: d.Records}
	}
	return &Workload{cfg: w.cfg, Drives: drives}
}

// WithFormat derives a workload identical in drives and records but
// whose batches are encoded in a different wire format. Bodies (and
// therefore workload fingerprints) differ; observations do not, which
// is exactly the property the format-compare scenario exercises.
func (w *Workload) WithFormat(f Format) *Workload {
	cfg := w.cfg
	cfg.Format = f
	return &Workload{cfg: cfg.withDefaults(), Drives: w.Drives}
}

// Records returns the total record count of the workload.
func (w *Workload) Records() int {
	n := 0
	for _, d := range w.Drives {
		n += len(d.Records)
	}
	return n
}

// Split partitions the workload into per-client streams of encoded
// batches. Drives are assigned round-robin to streams, each stream
// interleaves its drives' records round-robin (per-drive order holds),
// and the interleaved stream is cut into BatchSize batches with
// prebuilt request bodies. Because a drive lives in exactly one stream
// and each stream is replayed in order by one client at a time, the
// final fleet state is independent of concurrency and scheduling.
func (w *Workload) Split(streams int) [][]*Batch {
	if streams < 1 {
		streams = 1
	}
	perStream := make([][]Drive, streams)
	for i, d := range w.Drives {
		perStream[i%streams] = append(perStream[i%streams], d)
	}
	queues := make([][]*Batch, streams)
	for s, drives := range perStream {
		var stream []fleet.Observation
		for step := 0; ; step++ {
			any := false
			for _, d := range drives {
				if step >= len(d.Records) {
					continue
				}
				any = true
				stream = append(stream, fleet.Observation{Serial: d.Serial, Class: d.Class, Record: d.Records[step]})
			}
			if !any {
				break
			}
		}
		for lo := 0; lo < len(stream); lo += w.cfg.BatchSize {
			obs := stream[lo:min(lo+w.cfg.BatchSize, len(stream))]
			queues[s] = append(queues[s], &Batch{
				Stream:      s,
				Index:       len(queues[s]),
				Obs:         obs,
				Body:        encodeBody(w.cfg.Format, obs),
				ContentType: w.cfg.Format.ContentType(),
			})
		}
	}
	return queues
}

// wireRecord is the POST /v1/ingest wire form of one observation. Class
// is omitted for HDD observations, so pure-HDD bodies stay byte-identical
// to pre-class builds (the server parses the absent field as HDD).
type wireRecord struct {
	Serial string     `json:"serial"`
	Hour   int        `json:"hour"`
	Class  string     `json:"class,omitempty"`
	Values []*float64 `json:"values"`
}

// EncodeBatch renders observations as an ingest request body:
// non-finite values become null (JSON cannot carry NaN/Inf).
func EncodeBatch(obs []fleet.Observation) []byte {
	recs := make([]wireRecord, len(obs))
	for i, o := range obs {
		vals := make([]*float64, len(o.Record.Values))
		for a := range o.Record.Values {
			if v := o.Record.Values[a]; !math.IsNaN(v) && !math.IsInf(v, 0) {
				x := v
				vals[a] = &x
			}
		}
		recs[i] = wireRecord{Serial: o.Serial, Hour: o.Record.Hour, Values: vals}
		if o.Class != smart.HDD {
			recs[i].Class = o.Class.String()
		}
	}
	body, err := json.Marshal(map[string]any{"records": recs})
	if err != nil {
		// Observations are plain structs of finite floats by construction;
		// Marshal cannot fail on them.
		panic(fmt.Sprintf("loadgen: encoding batch: %v", err))
	}
	return body
}

// encodeBody renders observations in the given format. Both encoders
// drop non-finite values (null in JSON, an absent attribute triple in
// binary) and the server decodes either back to NaN, so the two bodies
// ingest to bit-identical fleet state.
func encodeBody(f Format, obs []fleet.Observation) []byte {
	if f == FormatBinary {
		return wire.EncodeBatch(obs)
	}
	return EncodeBatch(obs)
}

// Fingerprint hashes the exact request sequence of split queues — every
// body, in (stream, index) order. Two runs with the same seed must
// produce the same fingerprint; that is the load generator's
// determinism contract.
func Fingerprint(queues [][]*Batch) string {
	h := fnv.New64a()
	for _, q := range queues {
		for _, b := range q {
			fmt.Fprintf(h, "%d|%d|", b.Stream, b.Index)
			h.Write(b.Body)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// ChunkQueues slices every stream's batch queue into n contiguous
// chunks (chunk k of every stream holds its batches [k*len/n,
// (k+1)*len/n)), the phase boundaries of a multi-phase scenario.
func ChunkQueues(queues [][]*Batch, n int) [][][]*Batch {
	chunks := make([][][]*Batch, n)
	for k := 0; k < n; k++ {
		chunks[k] = make([][]*Batch, len(queues))
		for s, q := range queues {
			lo, hi := k*len(q)/n, (k+1)*len(q)/n
			chunks[k][s] = q[lo:hi]
		}
	}
	return chunks
}

// CountRecords sums the observations of per-stream queues.
func CountRecords(queues [][]*Batch) int {
	n := 0
	for _, q := range queues {
		for _, b := range q {
			n += len(b.Obs)
		}
	}
	return n
}
