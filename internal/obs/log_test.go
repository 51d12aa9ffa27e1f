package obs

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"strings"
	"testing"
)

// setupLogs runs the shared command set-up at level with a buffer for its
// output, and puts the process-wide logger back to silent afterwards.
func setupLogs(t *testing.T, level string) *strings.Builder {
	t.Helper()
	var sb strings.Builder
	if err := SetupCLI(&sb, level, ""); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { SetupCLI(io.Discard, "", "") })
	return &sb
}

// formatProbe counts the times a handler asked it for its value.
type formatProbe struct{ formatted *int }

func (p formatProbe) LogValue() slog.Value {
	*p.formatted++
	return slog.StringValue("formatted")
}

// TestLoggerSilentUntilSetup pins the library contract: before a binary
// sets an output, a call at any level formats nothing and allocates
// nothing.
func TestLoggerSilentUntilSetup(t *testing.T) {
	setupLogs(t, "") // the state every process starts in
	formatted := 0
	probe := formatProbe{&formatted}
	L().Error("not written", "v", probe)
	L().Warn("not written", "v", probe)
	if formatted != 0 {
		t.Errorf("a silent logger formatted its arguments %d times", formatted)
	}
	if L().Enabled(context.Background(), slog.LevelError) {
		t.Error("a silent logger is enabled at error")
	}
	if n := testing.AllocsPerRun(100, func() { L().Warn("not written", "sn", 42, "xapp", "mobiwatch") }); n != 0 {
		t.Errorf("a silent call allocates %.0f times", n)
	}
}

func TestLoggerLevelGating(t *testing.T) {
	sb := setupLogs(t, "debug")
	L().Debug("debug shown", "sn", 1)
	if !strings.Contains(sb.String(), `level=DEBUG msg="debug shown" sn=1`) {
		t.Fatalf("debug record missing after a debug set-up: %q", sb.String())
	}

	sb = setupLogs(t, "warn")
	L().Debug("hidden")
	L().Info("hidden")
	L().Warn("shown")
	L().Error("shown too")
	out := sb.String()
	if strings.Contains(out, "hidden") {
		t.Fatalf("below-level records emitted:\n%s", out)
	}
	if !strings.Contains(out, "level=WARN msg=shown") || !strings.Contains(out, "level=ERROR") {
		t.Fatalf("at-level records missing:\n%s", out)
	}
}

func TestLoggerLogfmt(t *testing.T) {
	sb := setupLogs(t, "info")
	L().Info("indication routed", "xapp", "mobiwatch", "sn", 42, "err", errors.New("boom failed"))
	out := sb.String()
	want := ` level=INFO msg="indication routed" xapp=mobiwatch sn=42 err="boom failed"` + "\n"
	if !strings.HasPrefix(out, "time=") || !strings.HasSuffix(out, want) || strings.Count(out, "\n") != 1 {
		t.Fatalf("got  %q\nwant time=… %q", out, want)
	}
}

func TestParseLevel(t *testing.T) {
	for _, in := range []string{"debug", "INFO", "Warn", "error"} {
		if err := SetupCLI(io.Discard, in, ""); err != nil {
			t.Errorf("SetupCLI(%q): %v", in, err)
		}
	}
	if err := SetupCLI(io.Discard, "loud", ""); err == nil {
		t.Error("SetupCLI accepted an unknown level")
	}
	SetupCLI(io.Discard, "", "")
}
