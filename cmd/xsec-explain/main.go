// Command xsec-explain runs LLM expert referencing on a telemetry window:
// it renders the zero-shot prompt, queries a model endpoint (the built-in
// expert service by default), and prints the structured analysis.
//
// Usage:
//
//	xsec-explain -demo bts-dos                      # explain a generated attack
//	xsec-explain -csv window.csv -model gemini      # explain a captured window
//	xsec-explain -demo blind-dos -endpoint http://… # use an external endpoint
//	xsec-explain -demo null-cipher -raw             # include the raw response
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/6g-xsec/xsec/internal/dataset"
	"github.com/6g-xsec/xsec/internal/llm"
	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/ue"
)

var demoKinds = map[string]ue.AttackKind{
	"bts-dos":     ue.AttackBTSDoS,
	"blind-dos":   ue.AttackBlindDoS,
	"uplink-id":   ue.AttackUplinkIDExtraction,
	"downlink-id": ue.AttackDownlinkIDExtraction,
	"null-cipher": ue.AttackNullCipher,
}

func main() {
	var (
		csvIn    = flag.String("csv", "", "MOBIFLOW CSV window to explain")
		demo     = flag.String("demo", "", "generate and explain an attack: bts-dos | blind-dos | uplink-id | downlink-id | null-cipher | benign")
		model    = flag.String("model", "chatgpt-4o", "model personality (chatgpt-4o, gemini, copilot, llama3, claude-3-sonnet)")
		endpoint = flag.String("endpoint", "", "external REST endpoint (default: built-in expert service)")
		raw      = flag.Bool("raw", false, "print the raw model response too")
		rag      = flag.Bool("rag", false, "augment the prompt with retrieved 3GPP passages")
		seed     = flag.Int64("seed", 3, "demo generation seed")
	)
	flag.Parse()
	if err := run(*csvIn, *demo, *model, *endpoint, *raw, *rag, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "xsec-explain:", err)
		os.Exit(1)
	}
}

func run(csvIn, demo, model, endpoint string, raw, rag bool, seed int64) error {
	window, err := loadWindow(csvIn, demo, seed)
	if err != nil {
		return err
	}
	fmt.Printf("window: %d telemetry records\n", len(window))
	for _, r := range window {
		fmt.Printf("  %s\n", r)
	}

	base := endpoint
	if base == "" {
		srv := llm.NewServer()
		addr, shutdown, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return err
		}
		defer shutdown()
		base = "http://" + addr
		fmt.Printf("\nbuilt-in expert service at %s\n", base)
	}

	client := llm.NewClient(base, model)
	client.RAG = rag
	analysis, err := client.AnalyzeWindow(context.Background(), window)
	if err != nil {
		return err
	}

	fmt.Printf("\n=== %s analysis ===\n", model)
	fmt.Printf("Verdict:     %s (confidence %.2f)\n", analysis.Verdict, analysis.Confidence)
	if analysis.Verdict == llm.VerdictAnomalous {
		fmt.Printf("Class:       %s\n", analysis.TopClass())
		fmt.Printf("Explanation: %s\n", analysis.Explanation)
		// The prompt, and so the explanation, names identifiers by
		// per-prompt alias; the legend maps them back to the window's.
		fmt.Println("Legend:")
		for _, al := range llm.Legend(window) {
			fmt.Printf("  %s\n", al)
		}
		fmt.Printf("Attribution: %s\n", analysis.Attribution)
		fmt.Println("Remediation:")
		for _, r := range analysis.Remediation {
			fmt.Printf("  - %s\n", r)
		}
	}
	if raw {
		fmt.Println("\n--- raw response ---")
		fmt.Println(analysis.Raw)
	}
	return nil
}

func loadWindow(csvIn, demo string, seed int64) (mobiflow.Trace, error) {
	if csvIn != "" {
		f, err := os.Open(csvIn)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return mobiflow.ReadCSV(f)
	}
	if demo == "" {
		return nil, fmt.Errorf("provide -csv FILE or -demo KIND (%s | benign)", strings.Join(demoNames(), " | "))
	}
	labeled, err := dataset.GenerateMixed(dataset.MixedConfig{
		BenignConfig:       dataset.BenignConfig{Seed: seed},
		InstancesPerAttack: 1,
	})
	if err != nil {
		return nil, err
	}
	if demo == "benign" {
		var out mobiflow.Trace
		for i, r := range labeled.Trace {
			if labeled.AttackOf[i] == -1 {
				out = append(out, r)
				if len(out) == 15 {
					break
				}
			}
		}
		return out, nil
	}
	kind, ok := demoKinds[demo]
	if !ok {
		return nil, fmt.Errorf("unknown demo %q (want %s | benign)", demo, strings.Join(demoNames(), " | "))
	}
	var out mobiflow.Trace
	for i, r := range labeled.Trace {
		if labeled.AttackOf[i] == int(kind) {
			out = append(out, r)
		}
	}
	return out, nil
}

func demoNames() []string {
	names := make([]string, 0, len(demoKinds))
	for n := range demoKinds {
		names = append(names, n)
	}
	return names
}
