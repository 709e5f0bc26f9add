// Monitor: the online application of the pipeline (the paper's planned
// reliability middleware). Trains on one fleet, then streams a held-out
// failing drive's telemetry hour by hour, printing each alert with the
// estimated remaining time to failure.
package main

import (
	"fmt"
	"log"

	"disksig"
	"disksig/internal/monitor"
)

func main() {
	log.SetFlags(0)

	// Train the per-group degradation predictors.
	trainFleet, err := disksig.GenerateFleet(disksig.FleetConfig(disksig.ScaleSmall, 1))
	if err != nil {
		log.Fatal(err)
	}
	ch, err := disksig.Characterize(trainFleet, disksig.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	m, err := monitor.FromCharacterization(ch, monitor.Config{})
	if err != nil {
		log.Fatal(err)
	}
	// The drives go in under their fleet IDs, the healthy one offset by
	// 1,000,000, so the monitor needs an ID map in front of its slots.
	mon := monitor.NewSparse(m)

	// A held-out fleet the models have never seen.
	liveFleet, err := disksig.GenerateFleet(disksig.FleetConfig(disksig.ScaleSmall, 99))
	if err != nil {
		log.Fatal(err)
	}
	drive := liveFleet.Failed[0]
	fmt.Printf("streaming drive #%d (%d hourly records, fails at the last one)\n\n",
		drive.DriveID, drive.Len())

	for _, rec := range drive.Records {
		if alert := mon.Ingest(drive.DriveID, rec); alert != nil {
			fmt.Println(alert)
		}
	}

	st, _ := mon.Status(drive.DriveID)
	fmt.Printf("\nfinal state: severity=%s degradation=%+.2f (actual failure occurred at hour %d)\n",
		st.Severity, st.Degradation, drive.Records[drive.Len()-1].Hour)

	// Contrast with a healthy drive: it should stay quiet.
	good := liveFleet.Good[0]
	quiet := true
	for _, rec := range good.Records {
		if alert := mon.Ingest(1_000_000+good.DriveID, rec); alert != nil && alert.Severity >= monitor.Warning {
			quiet = false
			fmt.Println("unexpected:", alert)
		}
	}
	if quiet {
		fmt.Printf("healthy drive #%d streamed %d records without a warning\n", good.DriveID, good.Len())
	}
}
