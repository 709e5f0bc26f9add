// Command diskmon demonstrates the online monitoring middleware: it
// trains the characterization pipeline on one fleet, then replays a
// second (held-out) fleet's telemetry through the streaming monitor,
// printing alerts as drives degrade and summarizing detection lead time.
//
// Usage:
//
//	diskmon -scale small -replay-failed 10 -replay-good 50
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"time"

	"disksig/internal/core"
	"disksig/internal/faultinject"
	"disksig/internal/monitor"
	"disksig/internal/parallel"
	"disksig/internal/quality"
	"disksig/internal/smart"
	"disksig/internal/stats"
	"disksig/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("diskmon: ")

	var (
		scaleFlag    = flag.String("scale", "small", "fleet scale preset")
		seed         = flag.Int64("seed", 1, "training fleet seed")
		replayFailed = flag.Int("replay-failed", 10, "failed drives to replay from the held-out fleet")
		replayGood   = flag.Int("replay-good", 50, "good drives to replay from the held-out fleet")
		verbose      = flag.Bool("v", false, "print every alert")
		jsonOut      = flag.String("json", "", "write the final fleet snapshot as JSON to this file ('-' for stdout)")
		qpolicy      = flag.String("quality", "lenient", "defective-telemetry policy for training: lenient, strict or repair")
		maxBad       = flag.Int("max-bad-rows", 0, "abort training once more than this many rows are quarantined; 0 means unlimited")
		corrupt      = flag.Float64("corrupt", 0, "inject faults into this fraction of replayed records (garbled values, duplicates, reorders) to exercise the monitor's quarantine")
	)
	flag.Parse()

	scale, err := synth.ParseScale(*scaleFlag)
	if err != nil {
		log.Fatal(err)
	}
	policy, err := quality.ParsePolicy(*qpolicy)
	if err != nil {
		log.Fatal(err)
	}
	qcfg := quality.Config{Policy: policy, MaxBadRows: *maxBad}

	// Train on fleet A.
	trainCfg := synth.DefaultConfig(scale)
	trainCfg.Seed = *seed
	trainDS, err := synth.Generate(trainCfg)
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	ch, err := core.Characterize(trainDS, core.Config{Seed: *seed, Quality: qcfg})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trained on fleet seed %d in %v\n", *seed, time.Since(start).Round(time.Millisecond))
	if q := ch.Quarantine; q != nil && !q.Clean() {
		fmt.Println(q.Summary())
	}

	m, err := monitor.FromCharacterization(ch, monitor.Config{})
	if err != nil {
		log.Fatal(err)
	}
	// Drives are keyed by fleet DriveID, good ones offset by 1,000,000.
	mon := monitor.NewSparse(m)

	// Replay a held-out fleet (different seed: drives the models never saw).
	replayCfg := synth.DefaultConfig(scale)
	replayCfg.Seed = *seed + 1000
	replayDS, err := synth.Generate(replayCfg)
	if err != nil {
		log.Fatal(err)
	}

	// Optional fault injection: corrupt the replay stream deterministically
	// (seeded per drive) so the monitor's quarantine path is exercised.
	stream := func(p *smart.Profile) []smart.Record {
		if *corrupt <= 0 {
			return p.Records
		}
		recs, _ := faultinject.CorruptRecords(p.Records, faultinject.Config{
			Seed:          parallel.DeriveSeed(*seed, int64(p.DriveID)),
			GarbleRate:    *corrupt,
			DuplicateRate: *corrupt,
			ReorderRate:   *corrupt,
		})
		return recs
	}

	var leadTimes []float64
	var missed, alerts int
	replayed := 0
	for _, p := range replayDS.Failed {
		if replayed >= *replayFailed {
			break
		}
		replayed++
		firstWarn := -1
		for _, rec := range stream(p) {
			if a := mon.Ingest(p.DriveID, rec); a != nil {
				alerts++
				if *verbose {
					fmt.Println("  ", a)
				}
				if a.Severity >= monitor.Warning && firstWarn < 0 {
					firstWarn = rec.Hour
				}
			}
		}
		if firstWarn >= 0 {
			leadTimes = append(leadTimes, float64(p.Len()-1-firstWarn))
		} else {
			missed++
		}
	}

	var falseAlarms, goodReplayed int
	for _, p := range replayDS.Good {
		if goodReplayed >= *replayGood {
			break
		}
		goodReplayed++
		flagged := false
		for _, rec := range stream(p) {
			if a := mon.Ingest(p.DriveID+1_000_000, rec); a != nil && a.Severity >= monitor.Warning {
				flagged = true
			}
		}
		if flagged {
			falseAlarms++
		}
	}

	fmt.Printf("\nreplayed %d failed and %d good held-out drives (%d alerts raised)\n",
		replayed, goodReplayed, alerts)
	if len(leadTimes) > 0 {
		fmt.Printf("warning lead time before failure: median %.0fh, min %.0fh, max %.0fh\n",
			stats.Median(leadTimes), minOf(leadTimes), maxOf(leadTimes))
	}
	fmt.Printf("failed drives warned: %d/%d  |  good drives falsely warned: %d/%d\n",
		replayed-missed, replayed, falseAlarms, goodReplayed)
	if q := mon.Quality(); !q.Clean() {
		fmt.Println(q.Summary())
	}

	if *jsonOut != "" {
		w := os.Stdout
		if *jsonOut != "-" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := mon.WriteSnapshotJSON(w); err != nil {
			log.Fatal(err)
		}
	}
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
