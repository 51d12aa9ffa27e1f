// Closed-loop control (§5, Automated Network Responses): the framework
// detects a Blind DoS via MobiWatch, the LLM Analyzer classifies it and
// recommends blocking the replayed TMSI, the mitigation engine governs
// and issues that control over E2SM-XRC — and the attacker's next wave
// is rejected at the RAN.
//
// Run with: go run ./examples/closed-loop
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/6g-xsec/xsec/internal/core"
	"github.com/6g-xsec/xsec/internal/mitigate"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/ue"
)

func main() {
	fw, err := core.New(core.Options{
		Seed:         31,
		ReportPeriod: 10 * time.Millisecond,
		TrainOpts:    mobiwatch.TrainOptions{Epochs: 20, Seed: 31},
		Mitigate:     "enforce", // the closed loop
	})
	if err != nil {
		log.Fatal(err)
	}
	defer fw.Close()

	fmt.Println("training and deploying xApps with the mitigation engine enforcing...")
	benign, err := fw.CollectBenign(50)
	if err != nil {
		log.Fatal(err)
	}
	if err := fw.Train(benign); err != nil {
		log.Fatal(err)
	}
	if err := fw.DeployXApps(); err != nil {
		log.Fatal(err)
	}

	// Consume cases in the background, printing recommended controls.
	go func() {
		for c := range fw.Cases() {
			if c.Control != nil {
				fmt.Printf("  recommended to the engine: %s (%s)\n", c.Control.Action, c.Control.Reason)
			}
		}
	}()

	victim := fw.NewUE(ue.GalaxyA53, 700)
	vres, err := victim.RunSession(fw.GNB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("victim registered with TMSI %s\n", vres.GUTI.TMSI)

	attacker := fw.NewUE(ue.OAIUE, 701)
	attacker.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }

	fmt.Println("\nwave 1: Blind DoS replaying the victim's TMSI")
	before, err := attacker.RunBlindDoS(fw.GNB, vres.GUTI.TMSI, 6)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  wave 1 consumed %d RAN contexts\n", len(before.UEIDs))

	// Wait for the pipeline to detect, classify, and block: the journal
	// shows a control the gNB acknowledged.
	acked := func() (n int) {
		for _, en := range mitigate.Entries(fw.SDL) {
			if en.Acked() {
				n++
			}
		}
		return n
	}
	deadline := time.Now().Add(5 * time.Second)
	for acked() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if acked() == 0 {
		log.Fatal("closed loop did not fire")
	}
	fmt.Printf("\n%d control action(s) acked via E2SM-XRC\n", acked())
	time.Sleep(200 * time.Millisecond)

	fmt.Println("\nwave 2: the attacker tries again")
	g := fw.GNB
	activeBefore := g.ActiveUEs()
	if _, err := attacker.RunBlindDoS(fw.GNB, vres.GUTI.TMSI, 6); err != nil {
		fmt.Printf("  wave 2 aborted: %v\n", err)
	}
	leaked := g.ActiveUEs() - activeBefore
	fmt.Printf("  wave 2 leaked %d contexts (blocked TMSIs are rejected at setup)\n", leaked)
	if leaked <= 0 {
		fmt.Println("\nSUCCESS: the replayed identity is blocked; the attack no longer consumes resources")
	}
}
