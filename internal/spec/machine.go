package spec

import (
	"fmt"

	"icfp/internal/icfp"
	"icfp/internal/inorder"
	"icfp/internal/ooo"
	"icfp/internal/pipeline"
	"icfp/internal/runahead"
	"icfp/internal/sltp"
)

// Config returns the concrete pipeline configuration the machine runs
// on: BaseConfig with the overrides applied. The machine must be valid.
func (m Machine) Config() (pipeline.Config, error) {
	if err := m.Validate(); err != nil {
		return pipeline.Config{}, err
	}
	cfg := BaseConfig()
	m.Overrides.apply(&cfg)
	return cfg, nil
}

// trigger maps a spec trigger name to the pipeline policy.
func trigger(name string) pipeline.AdvanceTrigger {
	switch name {
	case TriggerL2:
		return pipeline.TriggerL2Only
	case TriggerPrimaryD1:
		return pipeline.TriggerPrimaryD1
	case TriggerAll:
		return pipeline.TriggerAll
	}
	panic(fmt.Sprintf("spec: unvalidated trigger %q", name))
}

// sbMode maps a spec store-buffer name to the iCFP design.
func sbMode(name string) icfp.SBMode {
	switch name {
	case "", SBChained:
		return icfp.SBChained
	case SBIdeal:
		return icfp.SBIdeal
	case SBLimited:
		return icfp.SBLimited
	}
	panic(fmt.Sprintf("spec: unvalidated store_buffer %q", name))
}

// New constructs the declared machine on BaseConfig — the one
// constructor path behind the harness, the registry, and distributed
// workers. It is NewOn(BaseConfig()).
func (m Machine) New() (Runner, error) {
	return m.NewOn(BaseConfig())
}

// NewOn constructs the declared machine on cfg: the machine's overrides
// win over cfg (the precedence Merge encodes), and every field no
// override names — trigger policy, check flags, cache geometry — keeps
// cfg's value. An empty Trigger leaves each model its paper default
// (runahead honours cfg's trigger and D$-blocking setting; multipass
// advances under L2 and primary D$ misses and forces D$-blocking; sltp
// always L2-only; icfp advances under all misses). An explicit multipass
// trigger keeps cfg's D$-blocking setting.
func (m Machine) NewOn(cfg pipeline.Config) (Runner, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	m.Overrides.apply(&cfg)
	switch m.Model {
	case ModelInOrder:
		return inorder.New(cfg), nil
	case ModelRunahead:
		if m.Trigger != "" {
			cfg.Trigger = trigger(m.Trigger)
		}
		return runahead.New(cfg), nil
	case ModelMultipass:
		if m.Trigger != "" {
			cfg.Trigger = trigger(m.Trigger)
		} else {
			cfg.Trigger, cfg.BlockSecondaryD1 = pipeline.TriggerPrimaryD1, true
		}
		return runahead.NewMultipass(cfg), nil
	case ModelSLTP:
		return sltp.New(cfg), nil
	case ModelICFP:
		trig := pipeline.TriggerAll
		if m.Trigger != "" {
			trig = trigger(m.Trigger)
		}
		return icfp.NewWithOptions(cfg, trig, sbMode(m.StoreBuffer)), nil
	case ModelOOO:
		oc := ooo.DefaultConfig()
		oc.Config = cfg
		oc.CFP = m.CFP
		if m.Overrides != nil && m.Overrides.ROBEntries != nil {
			oc.ROBEntries = *m.Overrides.ROBEntries
		}
		return ooo.New(oc), nil
	}
	return nil, fmt.Errorf("spec: unknown model %q", m.Model)
}
