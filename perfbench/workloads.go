package main

import (
	"fmt"
	"time"

	"disksig/internal/loadgen"
)

type topology int

const (
	// topoSingle is one standalone node without a WAL.
	topoSingle topology = iota
	// topoReplicated is a primary with a WAL shipping to a warm
	// follower that confirms every batch before the primary's 200.
	topoReplicated
	// topoRouted is a router over two standalone nodes.
	topoRouted
)

// workload is one traffic mix. See README.md for why each exists and
// which layers it exercises and bypasses.
type workload struct {
	name     string
	topology topology
	format   loadgen.Format
	drives   int
	writers  int
	// window is the measured window size in batches per writer stream:
	// large enough that a window spans tens of milliseconds, small
	// enough that a run holds well over a hundred of them.
	window int
	// reads is the open-loop read mix. With concurrent set it runs
	// beside the writers for the whole measured phase; otherwise it
	// runs alone after the writers, for postReads reads.
	reads      readSchedule
	concurrent bool
}

// postPeriods is the least length, in schedule periods, of the
// read-only phase of the workloads whose reads do not share the write
// phase: 110 summaries and 440 drive reads.
const postPeriods = 110

// minCleanWindows and minCleanReads are how many undisturbed windows
// and reads of each kind a measured phase collects before it ends:
// 100 reads leave 10 beyond each p90.
const (
	minCleanWindows = 50
	minCleanReads   = 100
)

// maxStretch bounds how far a phase may run on past its length to
// collect them.
const maxStretch = 2

// nodeReads is the read mix against one node of 3,000 drives: four
// drive reads, then a summary (about 6 ms when the host is quiet),
// which has the rest of the period to finish.
var nodeReads = readSchedule{period: 25 * time.Millisecond, slots: []readSlot{
	{0, kindDrive}, {2 * time.Millisecond, kindDrive}, {4 * time.Millisecond, kindDrive},
	{6 * time.Millisecond, kindDrive}, {8 * time.Millisecond, kindSummary},
}}

var workloads = []workload{
	{
		name: "score-binary", topology: topoSingle, format: loadgen.FormatBinary,
		drives: 3000, writers: 2, window: 100,
		reads: nodeReads,
	},
	{
		name: "replicated-json", topology: topoReplicated, format: loadgen.FormatJSON,
		drives: 3000, writers: 2, window: 20,
		reads: nodeReads,
	},
	{
		// The paper's population: 23,395 drives.
		name: "routed-readwrite", topology: topoRouted, format: loadgen.FormatBinary,
		drives: 23395, writers: 1, window: 40,
		// A routed summary over 23,395 drives takes 55-65 ms beside the
		// writer, so it goes last in a period long enough that a host
		// running at half speed does not push it into the next one. The
		// 100 summaries a p90 needs take 15 s, so this workload's phase
		// runs past a 10 s --seconds until they are in.
		// Eight drive reads a period: their p90 straddles the writer's GC
		// cycles (about 14 a second), so it needs the larger sample.
		reads: readSchedule{period: 150 * time.Millisecond, slots: []readSlot{
			{0, kindDrive}, {3 * time.Millisecond, kindDrive}, {6 * time.Millisecond, kindDrive},
			{9 * time.Millisecond, kindDrive}, {12 * time.Millisecond, kindDrive}, {15 * time.Millisecond, kindDrive},
			{18 * time.Millisecond, kindDrive}, {21 * time.Millisecond, kindDrive}, {24 * time.Millisecond, kindSummary},
		}},
		concurrent: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}
