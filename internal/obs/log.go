package obs

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"sync/atomic"
)

// logLevelEnv names the environment variable every command's -log-level
// defaults to.
const logLevelEnv = "XSEC_LOG_LEVEL"

// silent is the logger before a binary sets an output: its handler is
// enabled at no level, so a call returns before formatting anything.
var silent = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(math.MaxInt)}))

var std atomic.Pointer[slog.Logger]

func init() { std.Store(silent) }

// L returns the process-wide logger. Library code logs through it
// unconditionally; it writes nothing until a binary calls SetupCLI.
func L() *slog.Logger { return std.Load() }

// LogLevelFlag registers the -log-level flag every command shares on the
// default flag set. Its default is $XSEC_LOG_LEVEL.
func LogLevelFlag() *string {
	return flag.String("log-level", os.Getenv(logLevelEnv),
		"write structured logs to stderr at this level and above: debug | info | warn | error (default $"+logLevelEnv+"; empty: no logs)")
}

// SetupCLI is the observability set-up every command shares. At a
// non-empty level the process-wide logger writes slog text lines
// (time=… level=… msg=… key=value…) to w at that level and above; an
// empty level leaves it silent. A non-empty metricsAddr serves /metrics,
// /healthz, /traces and the registered extensions for the life of the
// process and names the bound address on w.
func SetupCLI(w io.Writer, level, metricsAddr string) error {
	logger := silent
	if level != "" {
		var lv slog.Level
		if err := lv.UnmarshalText([]byte(level)); err != nil {
			return fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", level)
		}
		logger = slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: lv}))
	}
	std.Store(logger)
	if metricsAddr != "" {
		addr, _, err := ListenAndServe(metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Fprintln(w, "metrics on http://"+addr)
	}
	return nil
}
