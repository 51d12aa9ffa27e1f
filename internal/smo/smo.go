// Package smo implements the Service Management and Orchestration layer
// (non-real-time RIC) of the framework: the rApp-side model training
// workflow ("time-insensitive tasks, e.g., ML model training, are handled
// within the SMO", §2.1), a versioned model registry backed by the SDL,
// and A1-style policy distribution to xApps (Figure 1's A1 interface).
package smo

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"github.com/6g-xsec/xsec/internal/mobiflow"
	"github.com/6g-xsec/xsec/internal/mobiwatch"
	"github.com/6g-xsec/xsec/internal/sdl"
)

// Registry stores versioned model bundles in the SDL, the hand-off point
// of the SMO "Train → Deploy" workflow (Figure 3).
type Registry struct {
	store *sdl.Store
}

// NewRegistry wraps an SDL store.
func NewRegistry(store *sdl.Store) *Registry { return &Registry{store: store} }

const registryNS = "smo/models"

// Publish stores a new bundle version under name and returns its version
// number (starting at 1).
func (r *Registry) Publish(name string, bundle []byte) (int, error) {
	if name == "" {
		return 0, fmt.Errorf("smo: model name required")
	}
	versions := r.Versions(name)
	next := 1
	if len(versions) > 0 {
		next = versions[len(versions)-1] + 1
	}
	r.store.Set(registryNS, versionKey(name, next), bundle)
	r.store.Set(registryNS, name+"/latest", []byte(strconv.Itoa(next)))
	return next, nil
}

// Latest returns the newest bundle and its version.
func (r *Registry) Latest(name string) ([]byte, int, bool) {
	raw, _, ok := r.store.Get(registryNS, name+"/latest")
	if !ok {
		return nil, 0, false
	}
	v, err := strconv.Atoi(string(raw))
	if err != nil {
		return nil, 0, false
	}
	bundle, _, ok := r.store.Get(registryNS, versionKey(name, v))
	return bundle, v, ok
}

// Get returns a specific version.
func (r *Registry) Get(name string, version int) ([]byte, bool) {
	bundle, _, ok := r.store.Get(registryNS, versionKey(name, version))
	return bundle, ok
}

// Versions lists the stored version numbers, ascending.
func (r *Registry) Versions(name string) []int {
	keys := r.store.Keys(registryNS, name+"/v")
	var out []int
	for _, k := range keys {
		v, err := strconv.Atoi(k[len(name)+2:])
		if err == nil {
			out = append(out, v)
		}
	}
	return out
}

func versionKey(name string, v int) string {
	return fmt.Sprintf("%s/v%08d", name, v)
}

// TrainingJob is the rApp workflow: fit MobiWatch models on collected
// benign telemetry and publish the bundle for deployment.
type TrainingJob struct {
	// Name is the registry entry (default "mobiwatch").
	Name string
	// Opts parameterizes the fit.
	Opts mobiwatch.TrainOptions
}

// Run trains and publishes; it returns the models and their version.
func (j TrainingJob) Run(reg *Registry, benign mobiflow.Trace) (*mobiwatch.Models, int, error) {
	name := j.Name
	if name == "" {
		name = "mobiwatch"
	}
	models, err := mobiwatch.Train(benign, j.Opts)
	if err != nil {
		return nil, 0, fmt.Errorf("smo: training: %w", err)
	}
	bundle, err := models.Save()
	if err != nil {
		return nil, 0, fmt.Errorf("smo: serializing bundle: %w", err)
	}
	version, err := reg.Publish(name, bundle)
	if err != nil {
		return nil, 0, err
	}
	return models, version, nil
}

// Deploy loads the latest published bundle for an xApp.
func Deploy(reg *Registry, name string) (*mobiwatch.Models, int, error) {
	bundle, version, ok := reg.Latest(name)
	if !ok {
		return nil, 0, fmt.Errorf("smo: no published model %q", name)
	}
	models, err := mobiwatch.Load(bundle)
	if err != nil {
		return nil, 0, fmt.Errorf("smo: loading bundle %q v%d: %w", name, version, err)
	}
	return models, version, nil
}

// Policy is an A1-style operator policy consumed by xApps.
type Policy struct {
	// ID names the policy instance.
	ID string `json:"id"`
	// ThresholdPercentile overrides MobiWatch's detection percentile.
	ThresholdPercentile float64 `json:"threshold_percentile,omitempty"`
	// MitigationMode switches the mitigation engine between "off",
	// "dry-run", and "enforce". Empty leaves the engine unchanged.
	MitigationMode string `json:"mitigation_mode,omitempty"`
	// DenyActions lists E2SM-XRC action classes (by their canonical
	// names, e.g. "block-tmsi") the engine must never issue. A non-nil
	// empty list clears a previous deny list.
	DenyActions []string `json:"deny_actions,omitempty"`
	// MitigationTTLMS overrides the rollback TTL for reversible actions.
	MitigationTTLMS int `json:"mitigation_ttl_ms,omitempty"`
	// UpdatedAt stamps the last change.
	UpdatedAt time.Time `json:"updated_at"`
}

// Encode renders the policy in its A1 wire form (JSON), shared by the
// SDL distribution path and the federation bus fan-out.
func (p Policy) Encode() ([]byte, error) {
	data, err := json.Marshal(p)
	if err != nil {
		return nil, fmt.Errorf("smo: encoding policy: %w", err)
	}
	return data, nil
}

// ParsePolicy parses the A1 wire form produced by Encode.
func ParsePolicy(data []byte) (Policy, error) {
	var p Policy
	if err := json.Unmarshal(data, &p); err != nil {
		return Policy{}, fmt.Errorf("smo: decoding policy: %w", err)
	}
	return p, nil
}

const policyNS = "a1/policies"

// A1 distributes policies through the SDL.
type A1 struct {
	store *sdl.Store
	clock func() time.Time
}

// NewA1 wraps an SDL store.
func NewA1(store *sdl.Store) *A1 { return &A1{store: store, clock: time.Now} }

// Put creates or updates a policy.
func (a *A1) Put(p Policy) error {
	if p.ID == "" {
		return fmt.Errorf("smo: policy ID required")
	}
	p.UpdatedAt = a.clock()
	data, err := p.Encode()
	if err != nil {
		return err
	}
	a.store.Set(policyNS, p.ID, data)
	return nil
}

// Get fetches a policy by ID.
func (a *A1) Get(id string) (Policy, bool) {
	raw, _, ok := a.store.Get(policyNS, id)
	if !ok {
		return Policy{}, false
	}
	p, err := ParsePolicy(raw)
	if err != nil {
		return Policy{}, false
	}
	return p, true
}

// Delete removes a policy.
func (a *A1) Delete(id string) bool { return a.store.Delete(policyNS, id) }

// List returns all policy IDs.
func (a *A1) List() []string { return a.store.Keys(policyNS, "") }

// Watch streams policy changes to an xApp.
func (a *A1) Watch(buffer int) (<-chan sdl.Event, func()) {
	return a.store.Watch(policyNS, "", buffer)
}
