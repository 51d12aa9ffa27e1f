// Command xsec-audit reconstructs and pretty-prints the forensic
// evidence chain behind 6G-XSec verdicts and control actions: MobiFlow
// batch digest → E2 indication → feature-window scores vs. thresholds →
// alert → LLM verdict → mitigation lifecycle.
//
// Usage:
//
//	xsec-audit                          # run a bts-dos enforce testbed, audit every issued action
//	xsec-audit -attack blind-dos        # audit a different attack scenario
//	xsec-audit -mitigate dry-run        # audit the rehearsal journal instead
//	xsec-audit -chain gnb-001/42        # restrict the audit to one chain
//	xsec-audit -endpoint http://host:9090 -label bts-dos   # query a live deployment's /prov
//
// In testbed mode the command exits non-zero when any issued mitigation
// action lacks a complete evidence chain — the auditability contract.
//
// -log-level (default $XSEC_LOG_LEVEL) writes structured logs to stderr
// at that level and above, none when empty; -metrics-addr serves
// /metrics and /healthz for the duration of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"time"

	"github.com/6g-xsec/xsec/internal/core"
	"github.com/6g-xsec/xsec/internal/mitigate"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/prov"
	"github.com/6g-xsec/xsec/internal/ue"
)

func main() {
	var (
		endpoint = flag.String("endpoint", "", "audit a live deployment: query <endpoint>/prov instead of running the testbed")
		chainID  = flag.String("chain", "", "restrict the audit to one chain (node/sn)")
		ueFilter = flag.String("ue", "", "endpoint mode: only chains touching this UE context")
		label    = flag.String("label", "", "endpoint mode: only chains mentioning this attack/state label")
		since    = flag.String("since", "", "endpoint mode: RFC 3339 lower time bound")
		until    = flag.String("until", "", "endpoint mode: RFC 3339 upper time bound")

		attack      = flag.String("attack", "bts-dos", "testbed mode: attack to launch and audit")
		mitigateMod = flag.String("mitigate", "enforce", "testbed mode: mitigation engine mode (off | dry-run | enforce)")
		sessions    = flag.Int("sessions", 60, "testbed mode: benign training sessions")
		epochs      = flag.Int("epochs", 25, "testbed mode: training epochs")
		seed        = flag.Int64("seed", 4, "testbed mode: seed")
		logLevel    = obs.LogLevelFlag()
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /healthz on this address for the run")
	)
	flag.Parse()

	if err := obs.SetupCLI(os.Stderr, *logLevel, *metricsAddr); err != nil {
		fmt.Fprintln(os.Stderr, "xsec-audit:", err)
		os.Exit(1)
	}

	var err error
	switch {
	case *endpoint != "":
		err = auditEndpoint(*endpoint, *chainID, *ueFilter, *label, *since, *until)
	default:
		err = auditRun(*attack, *mitigateMod, *sessions, *epochs, *seed, *chainID)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xsec-audit:", err)
		os.Exit(1)
	}
}

// auditEndpoint queries a live deployment's /prov endpoint and renders
// the matching chains.
func auditEndpoint(endpoint, chainID, ueFilter, label, since, until string) error {
	q := url.Values{}
	for k, v := range map[string]string{
		"chain": chainID, "ue": ueFilter, "label": label, "since": since, "until": until,
	} {
		if v != "" {
			q.Set(k, v)
		}
	}
	u := endpoint + "/prov"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", u, resp.StatusCode)
	}
	var chains []prov.ChainRecord
	if err := json.NewDecoder(resp.Body).Decode(&chains); err != nil {
		return fmt.Errorf("decoding /prov response: %w", err)
	}
	if len(chains) == 0 {
		fmt.Println("no chains matched")
		return nil
	}
	for _, c := range chains {
		prov.WriteChain(os.Stdout, c)
		fmt.Println()
	}
	fmt.Printf("%d chain(s)\n", len(chains))
	return nil
}

// auditRun drives a full testbed run — train, deploy with the governed
// mitigation engine, attack — then audits the provenance ledger: every
// issued mitigation action must resolve to a complete evidence chain.
func auditRun(attack, mitigateMode string, sessions, epochs int, seed int64, chainID string) error {
	fmt.Printf("=== xsec-audit: %s run, mitigation %s ===\n", attack, mitigateMode)
	fw, err := core.New(core.Options{
		Seed:         seed,
		ReportPeriod: 10 * time.Millisecond,
		TrainOpts:    mobiwatch.TrainOptions{Epochs: epochs, Seed: seed},
		Mitigate:     mitigateMode,
	})
	if err != nil {
		return err
	}
	defer fw.Close()

	benign, err := fw.CollectBenign(sessions)
	if err != nil {
		return err
	}
	if err := fw.Train(benign); err != nil {
		return err
	}
	if err := fw.DeployXApps(); err != nil {
		return err
	}
	fmt.Printf("deployed: AE threshold %.6f, LSTM threshold %.6f\n",
		fw.Models.AEThreshold, fw.Models.LSTMThreshold)

	// Drain cases quietly; the audit reads the ledger afterwards.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range fw.Cases() {
		}
	}()

	victim := fw.NewUE(ue.Pixel5, 900)
	vres, err := victim.RunSession(fw.GNB)
	if err != nil {
		return err
	}
	attacker := fw.NewUE(ue.OAIUE, 901)
	attacker.Pace = func() { fw.Clock().Advance(500 * time.Microsecond) }

	fmt.Printf("launching %s...\n", attack)
	switch attack {
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
		return fmt.Errorf("unknown attack %q", attack)
	}
	if err != nil {
		fmt.Printf("attack outcome: %v\n", err)
	}
	time.Sleep(500 * time.Millisecond) // let the pipeline drain

	if eng := fw.Mitigator(); eng != nil {
		eng.Quiesce()
	}
	fw.Prov().Flush()

	// The audit: every journaled action that reached "issued" must have
	// a complete evidence chain persisted in the SDL.
	entries := mitigate.Entries(fw.SDL)
	issued := make([]mitigate.Entry, 0, len(entries))
	for _, en := range entries {
		for _, tr := range en.History {
			if tr.State == mitigate.StateIssued.String() {
				issued = append(issued, en)
				break
			}
		}
	}
	fmt.Printf("\n%d journaled proposal(s), %d issued action(s)\n\n", len(entries), len(issued))

	incomplete := 0
	audited := 0
	for _, en := range issued {
		if en.Chain == "" {
			fmt.Printf("action#%d %s: NO CHAIN RECORDED\n\n", en.ID, en.Action)
			incomplete++
			continue
		}
		if chainID != "" && en.Chain != chainID {
			continue
		}
		id, err := prov.ParseChainID(en.Chain)
		if err != nil {
			return fmt.Errorf("action#%d: %w", en.ID, err)
		}
		rec, err := prov.ReadChain(fw.SDL, id)
		if err != nil {
			fmt.Printf("action#%d %s: chain %s NOT PERSISTED (%v)\n\n", en.ID, en.Action, en.Chain, err)
			incomplete++
			continue
		}
		audited++
		fmt.Printf("--- action#%d %s (decision %s, window %s) ---\n",
			en.ID, en.Action, en.Decision, en.Digest)
		prov.WriteChain(os.Stdout, rec)
		if missing := rec.MissingStages(); len(missing) > 0 {
			incomplete++
			fmt.Printf("INCOMPLETE: missing stages %v\n", missing)
		}
		fmt.Println()
	}

	if incomplete > 0 {
		return fmt.Errorf("%d of %d issued action(s) lack a complete evidence chain", incomplete, len(issued))
	}
	if len(issued) > 0 {
		fmt.Printf("audit OK: all %d issued action(s) have complete evidence chains\n", audited)
	} else {
		fmt.Println("no issued actions to audit (try -mitigate enforce)")
	}
	return nil
}
