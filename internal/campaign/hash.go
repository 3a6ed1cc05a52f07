package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"

	"chex86/internal/faultinject"
	"chex86/internal/tracker"
	"chex86/internal/workload"
)

// Key computes the spec's content address: a SHA-256 over labeled,
// length-delimited sections so no two distinct inputs can collide by
// concatenation:
//
//   - "spec": the key-relevant spec fields in canonical JSON — mode,
//     workload name, scale, instruction/cycle budgets, and the fully
//     resolved machine configuration (bench) or normalized fault campaign
//     configuration (fault).
//   - "workload": the deterministic object-file bytes of every program the
//     job simulates, at the job's scale. A catalog edit changes the bytes
//     and therefore the key.
//   - "rules": the rule database's byte-stable JSON export
//     (tracker.RuleDB.Export). A Table-I change invalidates everything, as
//     it must — every capability decision flows through the rules.
//
// Equal specs yield equal keys across processes and machines; the key is
// the cache filename.
func (s *Spec) Key() (string, error) {
	if err := s.validate(); err != nil {
		return "", err
	}
	h := sha256.New()
	section := func(label string, data []byte) {
		fmt.Fprintf(h, "%s:%d\n", label, len(data))
		h.Write(data)
	}

	spec, err := s.canonicalSpec()
	if err != nil {
		return "", err
	}
	section("spec", spec)

	progs, err := s.programBytes()
	if err != nil {
		return "", err
	}
	for _, pb := range progs {
		section("workload", pb)
	}

	section("rules", ruleBytes())
	return hex.EncodeToString(h.Sum(nil)), nil
}

// canonicalSpec renders the key-relevant spec fields deterministically.
func (s *Spec) canonicalSpec() ([]byte, error) {
	switch s.Mode {
	case ModeBench:
		cfg := s.config()
		return json.Marshal(struct {
			Mode      Mode            `json:"mode"`
			Workload  string          `json:"workload"`
			Scale     float64         `json:"scale"`
			MaxInsts  uint64          `json:"maxInsts"`
			MaxCycles uint64          `json:"maxCycles"`
			Config    json.RawMessage `json:"config"`
		}{s.Mode, s.Workload, s.scale(), s.MaxInsts, s.MaxCycles, cfg.CanonicalJSON()})
	case ModeFault:
		return json.Marshal(struct {
			Mode  Mode               `json:"mode"`
			Fault faultinject.Config `json:"fault"`
		}{s.Mode, s.Fault.Normalized()})
	}
	return nil, fmt.Errorf("campaign: unknown mode %q", s.Mode)
}

// programBytes returns the deterministic encodings of every guest program
// the spec simulates, in a fixed order.
func (s *Spec) programBytes() ([][]byte, error) {
	switch s.Mode {
	case ModeBench:
		b, err := workload.ByName(s.Workload).ProgramBytes(s.scale())
		if err != nil {
			return nil, err
		}
		return [][]byte{b}, nil
	case ModeFault:
		cfg := s.Fault.Normalized()
		var out [][]byte
		for _, w := range cfg.Workloads {
			p := workload.ByName(w)
			if p == nil {
				return nil, fmt.Errorf("campaign: unknown workload %q", w)
			}
			b, err := p.ProgramBytes(cfg.Scale)
			if err != nil {
				return nil, err
			}
			out = append(out, b)
		}
		return out, nil
	}
	return nil, fmt.Errorf("campaign: unknown mode %q", s.Mode)
}

// ruleBytes returns the byte-stable rule-database export, computed once:
// the database is a process-wide constant (NewRuleDB always returns the
// built-in Table-I rules).
var ruleBytes = sync.OnceValue(func() []byte {
	data, err := json.Marshal(tracker.NewRuleDB().Export())
	if err != nil {
		panic(fmt.Sprintf("campaign: rule export marshal: %v", err))
	}
	return data
})
