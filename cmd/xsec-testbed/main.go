// Command xsec-testbed runs the complete 6G-XSec deployment live: the
// simulated 5G data plane, the near-RT RIC with the MobiWatch and LLM
// Analyzer xApps, the SMO training workflow, and (optionally) the
// governed mitigation engine closing the control loop — then launches
// attacks and reports every processed case.
//
// Usage:
//
//	xsec-testbed                       # train, deploy, run all five attacks
//	xsec-testbed -attack bts-dos      # one attack
//	xsec-testbed -mitigate enforce    # governed mitigation engine (off | dry-run | enforce)
//	xsec-testbed -model llama3        # pick the analyst personality
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"github.com/6g-xsec/xsec/internal/core"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mitigate"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/ue"
)

func main() {
	var (
		attack      = flag.String("attack", "all", "attack to launch: bts-dos | blind-dos | uplink-id | downlink-id | null-cipher | all")
		mitigateMod = flag.String("mitigate", "", "deploy the mitigation engine: off | dry-run | enforce")
		model       = flag.String("model", "chatgpt-4o", "LLM analyst personality")
		sessions    = flag.Int("sessions", 60, "benign training sessions")
		epochs      = flag.Int("epochs", 25, "training epochs")
		seed        = flag.Int64("seed", 4, "seed")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /traces and /debug/pprof on this address (e.g. :9090)")
		logLevel    = obs.LogLevelFlag()
	)
	flag.Parse()
	if err := obs.SetupCLI(os.Stderr, *logLevel, ""); err != nil {
		fmt.Fprintln(os.Stderr, "xsec-testbed:", err)
		os.Exit(2)
	}
	if err := run(*attack, *mitigateMod, *model, *sessions, *epochs, *seed, *metricsAddr); err != nil {
		fmt.Fprintln(os.Stderr, "xsec-testbed:", err)
		os.Exit(1)
	}
}

func run(attack, mitigateMode, model string, sessions, epochs int, seed int64, metricsAddr string) error {
	fmt.Println("=== 6G-XSec testbed ===")
	fw, err := core.New(core.Options{
		Seed:         seed,
		ReportPeriod: 10 * time.Millisecond,
		TrainOpts:    mobiwatch.TrainOptions{Epochs: epochs, Seed: seed},
		LLMModel:     model,
		Mitigate:     mitigateMode,
		MetricsAddr:  metricsAddr,
	})
	if err != nil {
		return err
	}
	defer fw.Close()
	fmt.Printf("RIC up; gNB %q connected over E2; expert service at %s\n",
		fw.Opts.NodeID, fw.LLMBaseURL())
	if addr := fw.MetricsAddr(); addr != "" {
		fmt.Printf("observability: http://%s/metrics (Prometheus text), /traces, /debug/pprof\n", addr)
	}

	fmt.Printf("collecting %d benign sessions for training...\n", sessions)
	benign, err := fw.CollectBenign(sessions)
	if err != nil {
		return err
	}
	fmt.Printf("collected %d telemetry records; training MobiWatch (SMO workflow)...\n", len(benign))
	if err := fw.Train(benign); err != nil {
		return err
	}
	fmt.Printf("models deployed: AE threshold %.6f, LSTM threshold %.6f\n",
		fw.Models.AEThreshold, fw.Models.LSTMThreshold)
	if err := fw.DeployXApps(); err != nil {
		return err
	}
	if fw.Mitigator() != nil {
		fmt.Printf("xApps deployed: mobiwatch, llm-analyzer, mitigation-engine (%s)\n",
			fw.Mitigator().Mode())
	} else {
		fmt.Println("xApps deployed: mobiwatch, llm-analyzer")
	}

	// Consume cases in the background.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for c := range fw.Cases() {
			fmt.Printf("\n*** CASE (%s, score %.5f > %.5f)", c.Alert.Model, c.Alert.Score, c.Alert.Threshold)
			if c.Alert.Folded > 0 {
				// One flood, one case: the strongest of its flagged windows.
				fmt.Printf(" ×%d windows", 1+c.Alert.Folded)
			}
			fmt.Println()
			if c.Analysis != nil {
				fmt.Printf("    LLM verdict: %s", c.Analysis.Verdict)
				if len(c.Analysis.Hypotheses) > 0 {
					fmt.Printf(" — %s", c.Analysis.TopClass())
				}
				fmt.Println()
				if c.Analysis.Explanation != "" {
					fmt.Printf("    why: %s\n", c.Analysis.Explanation)
					// The expert saw per-prompt aliases; the case has the UEs.
					var where []string
					for _, al := range llm.Legend(c.Alert.Context) {
						where = append(where, al.String())
					}
					fmt.Printf("    where: %s\n", strings.Join(where, ", "))
				}
			}
			switch {
			case c.NeedsHuman:
				fmt.Println("    -> routed to human supervision queue")
			case c.Control != nil:
				fmt.Printf("    -> recommended control: %s (%s)\n", c.Control.Action, c.Control.Reason)
			}
		}
	}()

	// A victim for the DoS attacks.
	victim := fw.NewUE(ue.Pixel5, 900)
	vres, err := victim.RunSession(fw.GNB)
	if err != nil {
		return err
	}
	attacker := fw.NewUE(ue.OAIUE, 901)
	attacker.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }

	launch := func(name string) error {
		fmt.Printf("\n>>> launching %s\n", name)
		var err error
		switch name {
		case "bts-dos":
			_, err = attacker.RunBTSDoS(fw.GNB, 8)
		case "blind-dos":
			_, err = attacker.RunBlindDoS(fw.GNB, vres.GUTI.TMSI, 6)
		case "uplink-id":
			_, err = attacker.RunUplinkIDExtraction(fw.GNB)
		case "downlink-id":
			_, err = attacker.RunDownlinkIDExtraction(fw.GNB)
		case "null-cipher":
			_, err = attacker.RunNullCipher(fw.GNB)
		default:
			return fmt.Errorf("unknown attack %q", name)
		}
		if err != nil {
			fmt.Printf("    attack outcome: %v\n", err)
		}
		time.Sleep(300 * time.Millisecond) // let the pipeline drain
		return nil
	}

	if attack == "all" {
		for _, name := range []string{"bts-dos", "blind-dos", "uplink-id", "downlink-id", "null-cipher"} {
			if err := launch(name); err != nil {
				return err
			}
		}
	} else if err := launch(attack); err != nil {
		return err
	}

	time.Sleep(500 * time.Millisecond)
	ws := fw.WatchStats()
	as := fw.AnalyzerStats()
	fmt.Printf("\n=== summary ===\n")
	fmt.Printf("telemetry records seen:   %d\n", ws.RecordsSeen.Load())
	fmt.Printf("windows scored:           %d\n", ws.WindowsScored.Load())
	fmt.Printf("alerts raised:            %d (%d folded into another, %d shed by the triage queue, %d of %d taken answered from memory)\n",
		ws.AlertsRaised.Load(), ws.AlertsFolded.Load(), ws.AlertsShedPriority.Load()+ws.AlertsShedStale.Load(),
		ws.AlertsRecalled.Load(), ws.AlertsTaken.Load())
	fmt.Printf("cases processed:          %d (agree %d, disagree %d, failures %d)\n",
		as.Processed.Load(), as.Agreements.Load(), as.Disagrees.Load(), as.Failures.Load())
	fmt.Printf("human-review queue:       %d (%d aged out)\n", fw.Analyzer().HumanQueueLen(), fw.Analyzer().HumanQueueAgedOut())
	if eng := fw.Mitigator(); eng != nil {
		eng.Quiesce()
		tally := map[string]int{}
		acked := 0
		for _, en := range mitigate.Entries(fw.SDL) {
			tally[en.Decision]++
			if en.Acked() {
				acked++
			}
		}
		fmt.Printf("closed-loop controls:     %d acked by the gNB\n", acked)
		decisions := make([]string, 0, len(tally))
		for d := range tally {
			decisions = append(decisions, d)
		}
		sort.Strings(decisions)
		fmt.Printf("mitigation engine (%s):   %d journaled proposals, %d active\n",
			eng.Mode(), len(mitigate.Entries(fw.SDL)), eng.ActiveCount())
		for _, d := range decisions {
			fmt.Printf("    %-22s %d\n", d, tally[d])
		}
	}
	return nil
}
