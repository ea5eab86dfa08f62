// Self-describing policy registry: every policy registers a Spec naming
// its parameters and a factory, and Parse builds fresh instances from
// the command-line syntax
//
//	name
//	name:key=val,key=val
//
// e.g. "threshold:limit=2", "coplace:inner=decaythreshold,min=16".
// Policies hold per-run state, so each run parses its own instance.
package policy

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"numasim/internal/numa"
	"numasim/internal/sim"
)

// Param documents one policy parameter for usage listings.
type Param struct {
	Key     string
	Default string
	Doc     string
}

// Spec is one registered policy: its canonical name, a one-line
// description, the parameters it accepts, and a factory building a
// fresh instance from parsed arguments.
type Spec struct {
	Name   string
	Doc    string
	Params []Param
	New    func(a *Args) (numa.Policy, error)
}

// Usage renders the spec's command-line shape, e.g.
// "threshold:limit=4".
func (sp *Spec) Usage() string {
	if len(sp.Params) == 0 {
		return sp.Name
	}
	parts := make([]string, len(sp.Params))
	for i, p := range sp.Params {
		parts[i] = p.Key + "=" + p.Default
	}
	return sp.Name + ":" + strings.Join(parts, ",")
}

var registry = map[string]*Spec{}

// Register adds a policy spec to the registry. It panics on a duplicate
// name; call it from init.
func Register(sp Spec) {
	key := strings.ToLower(sp.Name)
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("policy: duplicate registration %q", sp.Name))
	}
	if sp.New == nil {
		panic(fmt.Sprintf("policy: registration %q without a factory", sp.Name))
	}
	p := sp
	registry[key] = &p
}

// Names returns every registered policy name, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	//numalint:ordered — sorted before returning
	for _, sp := range registry {
		names = append(names, sp.Name)
	}
	sort.Strings(names)
	return names
}

// Specs returns every registered policy spec, sorted by name.
func Specs() []*Spec {
	specs := make([]*Spec, 0, len(registry))
	//numalint:ordered — sorted before returning
	for _, sp := range registry {
		specs = append(specs, sp)
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	return specs
}

// Usage renders the whole registry for CLI help text: one line per
// policy, its parameter shape and description.
func Usage() string {
	var b strings.Builder
	for _, sp := range Specs() {
		fmt.Fprintf(&b, "  %-40s %s\n", sp.Usage(), sp.Doc)
	}
	return b.String()
}

// Args carries a parsed parameter list into a policy factory. Typed
// accessors record which keys were consumed and collect conversion
// errors; Parse reports the first error and any keys no factory asked
// about. A factory that builds a sub-policy (pragma, coplace) passes
// its Args through, so the inner policy's parameters live in the same
// list.
type Args struct {
	policy string
	kv     map[string]string
	used   map[string]bool
	err    error
}

func (a *Args) fail(format string, args ...any) {
	if a.err == nil {
		a.err = fmt.Errorf(format, args...)
	}
}

// Str returns the string parameter key, or def when absent.
func (a *Args) Str(key, def string) string {
	a.used[key] = true
	if s, ok := a.kv[key]; ok {
		return s
	}
	return def
}

// Int returns the integer parameter key, or def when absent.
func (a *Args) Int(key string, def int) int {
	a.used[key] = true
	s, ok := a.kv[key]
	if !ok {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		a.fail("policy %s: %s=%q: want an integer", a.policy, key, s)
		return def
	}
	return v
}

// Uint64 returns the unsigned parameter key (seeds), or def when absent.
func (a *Args) Uint64(key string, def uint64) uint64 {
	a.used[key] = true
	s, ok := a.kv[key]
	if !ok {
		return def
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		a.fail("policy %s: %s=%q: want an unsigned integer", a.policy, key, s)
		return def
	}
	return v
}

// Millis returns the duration parameter key, given as integer virtual
// milliseconds, or def when absent.
func (a *Args) Millis(key string, def sim.Time) sim.Time {
	a.used[key] = true
	s, ok := a.kv[key]
	if !ok {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		a.fail("policy %s: %s=%q: want milliseconds as a non-negative integer", a.policy, key, s)
		return def
	}
	return sim.Time(v) * sim.Millisecond
}

// Policy builds the sub-policy named by parameter key (def when
// absent), sharing this argument list, so the inner policy's
// parameters ride along: "coplace:inner=threshold,limit=2".
func (a *Args) Policy(key, def string) numa.Policy {
	name := strings.ToLower(a.Str(key, def))
	sp, ok := registry[name]
	if !ok {
		a.fail("policy %s: %s=%q: unknown policy (known: %s)",
			a.policy, key, name, strings.Join(Names(), ", "))
		return NewDefault()
	}
	pol, err := sp.New(a)
	if err != nil {
		a.fail("policy %s: %v", a.policy, err)
		return NewDefault()
	}
	return pol
}

// Parse builds a fresh policy instance from its command-line spelling:
// a registered name, optionally followed by ":key=val,key=val"
// parameters (see Usage for the vocabulary). Unknown names, malformed
// parameters and keys no policy consumes are errors.
func Parse(spec string) (numa.Policy, error) {
	name := strings.TrimSpace(spec)
	rest := ""
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name, rest = strings.TrimSpace(name[:i]), name[i+1:]
	}
	sp, ok := registry[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("unknown policy %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	a := &Args{policy: sp.Name, kv: map[string]string{}, used: map[string]bool{}}
	if rest != "" {
		for _, part := range strings.Split(rest, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			k, v, found := strings.Cut(part, "=")
			if !found || strings.TrimSpace(k) == "" {
				return nil, fmt.Errorf("policy %s: malformed parameter %q (want key=value)", sp.Name, part)
			}
			a.kv[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
		}
	}
	pol, err := sp.New(a)
	if err != nil {
		return nil, err
	}
	if a.err != nil {
		return nil, a.err
	}
	var unknown []string
	//numalint:ordered — sorted before reporting
	for k := range a.kv {
		if !a.used[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("policy %s: unknown parameter(s) %s (accepts: %s)",
			sp.Name, strings.Join(unknown, ", "), sp.Usage())
	}
	return pol, nil
}

func init() {
	Register(Spec{
		Name:   "threshold",
		Doc:    "the paper's fixed policy: local until the page moves limit times, then pin global",
		Params: []Param{{Key: "limit", Default: "4", Doc: "move budget before pinning"}},
		New: func(a *Args) (numa.Policy, error) {
			limit := a.Int("limit", DefaultThreshold)
			if limit < 0 {
				return nil, fmt.Errorf("policy threshold: negative limit %d", limit)
			}
			return NewThreshold(limit), nil
		},
	})
	Register(Spec{
		Name: "neverpin",
		Doc:  "threshold with an unreachable limit: pages ping-pong forever",
		New:  func(a *Args) (numa.Policy, error) { return NeverPin(), nil },
	})
	Register(Spec{
		Name: "allglobal",
		Doc:  "the T_global baseline: every writable page lives in global memory",
		New:  func(a *Args) (numa.Policy, error) { return AllGlobal{}, nil },
	})
	Register(Spec{
		Name: "alllocal",
		Doc:  "the T_local baseline: every page is placed locally",
		New:  func(a *Args) (numa.Policy, error) { return AllLocal{}, nil },
	})
	Register(Spec{
		Name:   "pragma",
		Doc:    "honour application placement pragmas, falling through to an inner policy",
		Params: []Param{{Key: "fallback", Default: "threshold", Doc: "policy for unhinted pages"}},
		New: func(a *Args) (numa.Policy, error) {
			return NewPragma(a.Policy("fallback", "threshold")), nil
		},
	})
	Register(Spec{
		Name: "reconsider",
		Doc:  "threshold that periodically forgives a pinned page's moves (§5)",
		Params: []Param{
			{Key: "limit", Default: "4", Doc: "move budget before pinning"},
			{Key: "period", Default: "64", Doc: "pinned requests between reprieves"},
			{Key: "interval", Default: "50", Doc: "defrost sweep period, virtual ms"},
		},
		New: func(a *Args) (numa.Policy, error) {
			limit, period := a.Int("limit", DefaultThreshold), a.Int("period", 64)
			if limit < 0 || period < 1 {
				return nil, fmt.Errorf("policy reconsider: bad parameters limit=%d period=%d", limit, period)
			}
			r := NewReconsider(limit, period)
			r.Interval = a.Millis("interval", r.Interval)
			return r, nil
		},
	})
	Register(Spec{
		Name: "freezedefrost",
		Doc:  "PLATINUM-style: pin hot movers for a freeze window, defrost after quiet time",
		Params: []Param{
			{Key: "freeze", Default: "20", Doc: "freeze window, virtual ms"},
			{Key: "defrost", Default: "200", Doc: "quiet time before defrost, virtual ms"},
		},
		New: func(a *Args) (numa.Policy, error) {
			return NewFreezeDefrost(a.Millis("freeze", 0), a.Millis("defrost", 0)), nil
		},
	})
	Register(Spec{
		Name: "decaythreshold",
		Doc:  "adaptive threshold on the decaying move counter: pins cool off and unpin",
		Params: []Param{
			{Key: "limit", Default: "4", Doc: "decayed move heat before pinning"},
			{Key: "interval", Default: "50", Doc: "defrost sweep period, virtual ms"},
		},
		New: func(a *Args) (numa.Policy, error) {
			limit := a.Int("limit", DefaultThreshold)
			if limit < 1 {
				return nil, fmt.Errorf("policy decaythreshold: limit %d < 1", limit)
			}
			d := NewDecayThreshold(limit)
			d.Interval = a.Millis("interval", d.Interval)
			return d, nil
		},
	})
	Register(Spec{
		Name: "bandit",
		Doc:  "per-page epsilon-greedy local-vs-global bandit (MAO's spirit)",
		Params: []Param{
			{Key: "eps", Default: "10", Doc: "exploration probability, percent"},
			{Key: "seed", Default: "1", Doc: "exploration PRNG seed"},
			{Key: "interval", Default: "50", Doc: "defrost sweep period, virtual ms"},
		},
		New: func(a *Args) (numa.Policy, error) {
			eps := a.Int("eps", 10)
			if eps < 0 || eps > 100 {
				return nil, fmt.Errorf("policy bandit: eps %d%% outside [0,100]", eps)
			}
			b := NewBandit(eps, a.Uint64("seed", 1))
			b.Interval = a.Millis("interval", b.Interval)
			return b, nil
		},
	})
	Register(Spec{
		Name: "classifier",
		Doc:  "read-mostly pages replicate locally; write-contended pages without a dominant node go global",
		Params: []Param{
			{Key: "limit", Default: "4", Doc: "decayed move heat to call a page contended"},
			{Key: "interval", Default: "50", Doc: "defrost sweep period, virtual ms"},
		},
		New: func(a *Args) (numa.Policy, error) {
			limit := a.Int("limit", DefaultThreshold)
			if limit < 1 {
				return nil, fmt.Errorf("policy classifier: limit %d < 1", limit)
			}
			c := NewClassifier(limit)
			c.Interval = a.Millis("interval", c.Interval)
			return c, nil
		},
	})
	Register(Spec{
		Name: "coplace",
		Doc:  "wrap an inner policy with thread co-placement: advise migrating threads toward their hot pages",
		Params: []Param{
			{Key: "inner", Default: "decaythreshold", Doc: "page-placement policy to wrap"},
			{Key: "min", Default: "8", Doc: "decayed heat a node needs before advising"},
		},
		New: func(a *Args) (numa.Policy, error) {
			min := a.Int("min", 8)
			if min < 1 {
				return nil, fmt.Errorf("policy coplace: min %d < 1", min)
			}
			return NewCoPlace(a.Policy("inner", "decaythreshold"), min), nil
		},
	})
}
