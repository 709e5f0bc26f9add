package main

import (
	"fmt"
	"math/rand"
	"strings"

	"disksig/internal/fleet"
	"disksig/internal/loadgen"
	"disksig/internal/smart"
	"disksig/internal/synth"
	"disksig/internal/wire"
)

// batchSize is loadgen's default batch: 200 records per request.
const batchSize = 200

// paperFailedShare is the failed fraction of the paper's population
// (433 of 23,395 drives).
const paperFailedShare = 433.0 / 23395.0

// fixedFleet is a seeded record stream over a fixed set of drives that
// keep reporting newer hours. Every drive replays one held-out loadgen
// profile (with loadgen's default 2 % garble/duplicate/reorder mix)
// from a seeded phase offset; each pass over the profile shifts its
// hours by period, so a drive never goes back in time and the working
// set never grows with run length. Drives are assigned round-robin to
// streams, one per writer connection; a stream emits one record per
// drive per step, in drive order, cut into batches of batchSize.
//
// Everything is a pure function of (seed, drives, streams): batch b of
// stream s is computed, not stored, so a run's batches can be replayed
// for the shadow and the per-call trace without keeping them.
type fixedFleet struct {
	serials []string
	classes []smart.DeviceClass
	records [][]smart.Record // each drive's profile (shared between drives)
	offset  []int
	period  int
	streams int
	format  loadgen.Format
}

// newFixedFleet builds a fleet of n drives over the held-out small
// loadgen workload of seed: the failed share of the paper's
// population replays failed profiles, the rest good ones.
func newFixedFleet(seed int64, n, streams int, format loadgen.Format) (*fixedFleet, error) {
	wcfg := loadgen.DefaultWorkloadConfig(synth.ScaleSmall, seed)
	wcfg.MaxFailed, wcfg.MaxGood = 1<<30, 1<<30
	wl, err := loadgen.BuildWorkload(wcfg)
	if err != nil {
		return nil, err
	}
	var failed, good []loadgen.Drive
	period := 0
	for _, d := range wl.Drives {
		if len(d.Records) == 0 {
			continue
		}
		for _, r := range d.Records {
			period = max(period, r.Hour+1)
		}
		if strings.HasPrefix(d.Serial, wcfg.SerialPrefix+"failed-") {
			failed = append(failed, d)
		} else {
			good = append(good, d)
		}
	}
	if len(failed) == 0 || len(good) == 0 {
		return nil, fmt.Errorf("workload seed %d has %d failed and %d good profiles, want both", seed, len(failed), len(good))
	}
	rng := rand.New(rand.NewSource(seed))
	isFailed := make([]bool, n)
	for _, i := range rng.Perm(n)[:int(float64(n)*paperFailedShare+0.5)] {
		isFailed[i] = true
	}
	f := &fixedFleet{
		serials: make([]string, n),
		classes: make([]smart.DeviceClass, n),
		records: make([][]smart.Record, n),
		offset:  make([]int, n),
		period:  period,
		streams: streams,
		format:  format,
	}
	nf, ng := 0, 0
	for i := 0; i < n; i++ {
		var d loadgen.Drive
		if isFailed[i] {
			d, nf = failed[nf%len(failed)], nf+1
		} else {
			d, ng = good[ng%len(good)], ng+1
		}
		f.serials[i] = fmt.Sprintf("pb-%05d", i)
		f.classes[i] = d.Class
		f.records[i] = d.Records
		f.offset[i] = rng.Intn(len(d.Records))
	}
	return f, nil
}

// streamDrives is the number of drives stream s carries.
func (f *fixedFleet) streamDrives(s int) int {
	n := len(f.serials)
	return n/f.streams + btoi(s < n%f.streams)
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// obs returns the k-th observation of stream s.
func (f *fixedFleet) obs(s, k int) fleet.Observation {
	nd := f.streamDrives(s)
	step, j := k/nd, k%nd
	i := s + j*f.streams
	recs := f.records[i]
	pos := f.offset[i] + step
	rec := recs[pos%len(recs)]
	rec.Hour += pos / len(recs) * f.period
	return fleet.Observation{Serial: f.serials[i], Class: f.classes[i], Record: rec}
}

// warmupBatches is how many batches carry step 0 of stream s: one
// record of every drive, which brings the whole fleet into the store
// before anything is timed.
func (f *fixedFleet) warmupBatches(s int) int {
	return (f.streamDrives(s) + batchSize - 1) / batchSize
}

// batchObs returns the observations of batch b of stream s. Batches
// below warmupBatches(s) cover step 0 (the last one may be short);
// later batches are full and run on from step 1.
func (f *fixedFleet) batchObs(s, b int) []fleet.Observation {
	nd := f.streamDrives(s)
	lo, hi := b*batchSize, (b+1)*batchSize
	if w := f.warmupBatches(s); b < w {
		hi = min(hi, nd)
	} else {
		lo, hi = nd+(b-w)*batchSize, nd+(b-w+1)*batchSize
	}
	out := make([]fleet.Observation, 0, hi-lo)
	for k := lo; k < hi; k++ {
		out = append(out, f.obs(s, k))
	}
	return out
}

// batch builds batch b of stream s, with its body encoded in the
// fleet's wire format when encode is set.
func (f *fixedFleet) batch(s, b int, encode bool) *loadgen.Batch {
	obs := f.batchObs(s, b)
	bt := &loadgen.Batch{Stream: s, Index: b, Obs: obs, ContentType: f.format.ContentType()}
	if encode {
		if f.format == loadgen.FormatBinary {
			bt.Body = wire.EncodeBatch(obs)
		} else {
			bt.Body = loadgen.EncodeBatch(obs)
		}
	}
	return bt
}

// warmup returns the step-0 batches of every stream.
func (f *fixedFleet) warmup(encode bool) [][]*loadgen.Batch {
	q := make([][]*loadgen.Batch, f.streams)
	for s := range q {
		for b := 0; b < f.warmupBatches(s); b++ {
			q[s] = append(q[s], f.batch(s, b, encode))
		}
	}
	return q
}

// window returns measured window w: batches [w*per, (w+1)*per) of the
// measured part of every stream.
func (f *fixedFleet) window(w, per int, encode bool) [][]*loadgen.Batch {
	q := make([][]*loadgen.Batch, f.streams)
	for s := range q {
		base := f.warmupBatches(s) + w*per
		for b := base; b < base+per; b++ {
			q[s] = append(q[s], f.batch(s, b, encode))
		}
	}
	return q
}
