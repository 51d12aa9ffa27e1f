package prov

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/6g-xsec/xsec/internal/obs"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// fullChain records one end-to-end evidence chain into l.
func fullChain(l *Ledger, id ChainID, ue uint64, at time.Time) {
	l.Record(Event{Chain: id, Kind: KindEmit, At: at, Records: 10, SeqFirst: 1, SeqLast: 10})
	l.Record(Event{Chain: id, Kind: KindIndication, At: at.Add(time.Millisecond), Label: "routed"})
	l.Record(Event{Chain: id, Kind: KindWindow, At: at.Add(2 * time.Millisecond),
		Model: "autoencoder", Score: 4.2, Threshold: 1.5, Flagged: true})
	l.Record(Event{Chain: id, Kind: KindAlert, At: at.Add(3 * time.Millisecond),
		Model: "autoencoder", Score: 4.2, Threshold: 1.5, Flagged: true, Label: "raised"})
	l.Record(Event{Chain: id, Kind: KindVerdict, At: at.Add(4 * time.Millisecond),
		Label: "anomalous", Action: "bts-dos", Score: 0.9, Digest: DigestText("prompt")})
	l.Record(Event{Chain: id, Kind: KindMitigation, At: at.Add(5 * time.Millisecond),
		ActionID: 1, Action: "release-ue", Label: "issued", Target: "ue/901", UEID: ue})
}

func TestQuerySelect(t *testing.T) {
	l := New(Options{})
	defer l.Close()
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)

	fullChain(l, ChainID{Node: "gnb-001", SN: 1}, 901, base)
	l.Record(Event{Chain: ChainID{Node: "gnb-001", SN: 2}, Kind: KindWindow, At: base.Add(time.Hour),
		Model: "autoencoder", Score: 0.1, Threshold: 1.5})
	l.Flush()

	if got := len(l.Select(Query{})); got != 2 {
		t.Fatalf("unfiltered Select = %d chains, want 2", got)
	}
	if got := l.Select(Query{Chain: ChainID{Node: "gnb-001", SN: 1}}); len(got) != 1 || got[0].ID.SN != 1 {
		t.Fatalf("by chain: %+v", got)
	}
	ue := uint64(901)
	if got := l.Select(Query{UE: &ue}); len(got) != 1 || got[0].ID.SN != 1 {
		t.Fatalf("by UE: %+v", got)
	}
	if got := l.Select(Query{Label: "BTS-DoS"}); len(got) != 1 { // case-insensitive, matches Action too
		t.Fatalf("by label: %+v", got)
	}
	if got := l.Select(Query{Label: "issued"}); len(got) != 1 {
		t.Fatalf("by lifecycle state: %+v", got)
	}
	if got := l.Select(Query{Since: base.Add(30 * time.Minute)}); len(got) != 1 || got[0].ID.SN != 2 {
		t.Fatalf("by since: %+v", got)
	}
	if got := l.Select(Query{Until: base.Add(30 * time.Minute)}); len(got) != 1 || got[0].ID.SN != 1 {
		t.Fatalf("by until: %+v", got)
	}
}

func TestMissingStages(t *testing.T) {
	l := New(Options{})
	defer l.Close()
	at := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)

	full := ChainID{Node: "n", SN: 1}
	fullChain(l, full, 901, at)
	partial := ChainID{Node: "n", SN: 2}
	l.Record(Event{Chain: partial, Kind: KindWindow, At: at, Model: "autoencoder", Flagged: true})
	l.Flush()

	rec, _ := l.Chain(full)
	if missing := rec.MissingStages(); len(missing) != 0 {
		t.Fatalf("full chain reported missing stages %v", missing)
	}
	if !rec.HasMitigation("issued") || rec.HasMitigation("rolled-back") {
		t.Fatal("HasMitigation wrong")
	}
	rec, _ = l.Chain(partial)
	missing := rec.MissingStages()
	if len(missing) != 5 {
		t.Fatalf("partial chain missing %v, want 5 stages", missing)
	}
	for _, k := range missing {
		if k == KindWindow {
			t.Fatal("present stage reported missing")
		}
	}
}

func TestReadChainAndStoredChains(t *testing.T) {
	store := sdl.New()
	l := New(Options{Store: store})
	defer l.Close()

	// A node with slashes exercises the fixed-width key parser.
	ids := []ChainID{
		{Node: "site-a/gnb-2", SN: 3},
		{Node: "gnb-001", SN: 10},
		{Node: "gnb-001", SN: 2},
	}
	at := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	for _, id := range ids {
		fullChain(l, id, 901, at)
	}
	l.Flush()

	rec, err := ReadChain(store, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Events) != 6 {
		t.Fatalf("reconstructed %d events, want 6", len(rec.Events))
	}
	for i := 1; i < len(rec.Events); i++ {
		if rec.Events[i].At.Before(rec.Events[i-1].At) {
			t.Fatalf("events out of causal order: %+v", rec.Events)
		}
	}
	if _, err := ReadChain(store, ChainID{Node: "ghost", SN: 1}); err == nil {
		t.Fatal("ReadChain of unknown chain succeeded")
	}

	got := StoredChains(store)
	want := []ChainID{{Node: "gnb-001", SN: 2}, {Node: "gnb-001", SN: 10}, {Node: "site-a/gnb-2", SN: 3}}
	if len(got) != len(want) {
		t.Fatalf("StoredChains = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("StoredChains[%d] = %v, want %v (numeric SN order within node)", i, got[i], want[i])
		}
	}
}

func TestParseEventKey(t *testing.T) {
	id := ChainID{Node: "region/site/gnb", SN: 77}
	gotID, seg, ok := parseSegmentKey(segmentKey(id, 12))
	if !ok || gotID != id || seg != 12 {
		t.Fatalf("parseSegmentKey = %v %d %v", gotID, seg, ok)
	}
	for _, bad := range []string{"wrong/gnb/1/0", "ev/", "ev/n", "ev/n/x/0", "ev/n/1/x"} {
		if _, _, ok := parseSegmentKey(bad); ok {
			t.Fatalf("parseSegmentKey(%q) accepted", bad)
		}
	}
}

func TestServeProv(t *testing.T) {
	repl := New(Options{})
	old := SetActive(repl)
	defer func() { SetActive(old).Close() }()
	at := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	fullChain(repl, ChainID{Node: "gnb-001", SN: 1}, 901, at)
	repl.Flush()

	srv := httptest.NewServer(obs.NewHandler(obs.Default, obs.DefaultTracer))
	defer srv.Close()

	get := func(query string) []ChainRecord {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/prov" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET /prov%s: HTTP %d", query, resp.StatusCode)
		}
		var out []ChainRecord
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}

	if got := get(""); len(got) != 1 || got[0].Key != "gnb-001/1" {
		t.Fatalf("GET /prov = %+v", got)
	}
	if got := get("?chain=gnb-001/1&label=bts-dos&ue=901&since=2026-08-06T11:00:00Z"); len(got) != 1 {
		t.Fatalf("filtered query = %+v", got)
	}
	if got := get("?label=nothing-here"); len(got) != 0 {
		t.Fatalf("want empty slice, got %+v", got)
	}
	// Events survive the HTTP roundtrip with digests intact.
	full := get("?chain=gnb-001/1")[0]
	if full.Events[4].Digest != DigestText("prompt") {
		t.Fatalf("digest corrupted over HTTP: %v", full.Events[4].Digest)
	}

	for _, bad := range []string{"?chain=nochain", "?ue=x", "?since=yesterday"} {
		resp, err := srv.Client().Get(srv.URL + "/prov" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("GET /prov%s: HTTP %d, want 400", bad, resp.StatusCode)
		}
	}
}

func TestWriteChain(t *testing.T) {
	l := New(Options{})
	defer l.Close()
	id := ChainID{Node: "gnb-001", SN: 1}
	fullChain(l, id, 901, time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC))
	l.Flush()
	rec, _ := l.Chain(id)

	var sb strings.Builder
	WriteChain(&sb, rec)
	out := sb.String()
	for _, want := range []string{
		"chain gnb-001/1",
		"emit", "10 records",
		"indication routed",
		"score=4.200000 threshold=1.500000 FLAGGED",
		"verdict=anomalous class=bts-dos confidence=0.90",
		"action#1 release-ue → issued target=ue/901 ue=901",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteChain output missing %q:\n%s", want, out)
		}
	}
}
