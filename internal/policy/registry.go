// Policy registry: one table names every policy -policy can select, and
// Parse builds fresh instances from the command-line syntax
//
//	name
//	name:key=val,key=val
//
// e.g. "threshold:limit=2", "coplace:inner=decaythreshold,min=16".
// Policies hold per-run state, so each run parses its own instance.
package policy

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"numasim/internal/numa"
	"numasim/internal/sim"
)

// entry is one selectable policy: its name and a factory that reads the
// policy's parameters, each with its default and bounds, and builds a
// fresh instance. A value outside its bounds is recorded in the args, so
// the constructor only ever sees valid values.
type entry struct {
	name string
	new  func(a *args) numa.Policy
}

// registry holds every selectable policy, sorted by name. init fills it:
// the pragma and coplace factories look their inner policy up in it, so
// a plain initializer would refer to itself.
var registry []entry

func init() {
	registry = []entry{
		{"allglobal", func(*args) numa.Policy { return AllGlobal{} }},
		{"alllocal", func(*args) numa.Policy { return AllLocal{} }},
		{"bandit", func(a *args) numa.Policy {
			return NewBandit(a.int("eps", 10, 0, 100), a.uint64("seed", 1))
		}},
		{"classifier", func(a *args) numa.Policy {
			return NewClassifier(a.int("limit", DefaultThreshold, 1, math.MaxInt))
		}},
		{"coplace", func(a *args) numa.Policy {
			return NewCoPlace(a.policy("inner", "decaythreshold"), a.int("min", 8, 1, math.MaxInt))
		}},
		{"decaythreshold", func(a *args) numa.Policy {
			return NewDecayThreshold(a.int("limit", DefaultThreshold, 1, math.MaxInt))
		}},
		{"freezedefrost", func(a *args) numa.Policy {
			freeze := a.millis("freeze", DefaultFreeze)
			return NewFreezeDefrost(freeze, a.millis("defrost", 10*freeze))
		}},
		{"neverpin", func(*args) numa.Policy { return NeverPin() }},
		{"pragma", func(a *args) numa.Policy { return NewPragma(a.policy("fallback", "threshold")) }},
		{"reconsider", func(a *args) numa.Policy {
			return NewReconsider(a.int("limit", DefaultThreshold, 0, math.MaxInt), a.int("period", 64, 1, math.MaxInt))
		}},
		{"threshold", func(a *args) numa.Policy {
			return NewThreshold(a.int("limit", DefaultThreshold, 0, math.MaxInt))
		}},
	}
}

// lookup finds the policy named name, case-insensitively.
func lookup(name string) (entry, bool) {
	name = strings.ToLower(name)
	for _, e := range registry {
		if e.name == name {
			return e, true
		}
	}
	return entry{}, false
}

// Names returns every registered policy name, sorted.
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.name
	}
	return names
}

// args carries a parsed parameter list into a policy factory. Each
// accessor records the key it reads with its default, for the
// unknown-parameter error, and keeps the first bad value's error for
// Parse to report. A factory that builds a sub-policy (pragma, coplace)
// passes its args through, so the inner policy's parameters live in the
// same list.
type args struct {
	name    string // the parsed policy's, for errors
	kv      map[string]string
	used    map[string]bool
	accepts []string // "key=default" for each key read, in reading order
	err     error
}

func (a *args) fail(format string, v ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("policy %s: "+format, append([]any{a.name}, v...)...)
	}
}

// get marks key read, recording its default, and returns its value and
// true if the spec gave one, def and false otherwise.
func (a *args) get(key, def string) (string, bool) {
	if !a.used[key] {
		a.used[key] = true
		a.accepts = append(a.accepts, key+"="+def)
	}
	if s, ok := a.kv[key]; ok {
		return s, true
	}
	return def, false
}

// int returns the integer parameter key, or def when absent or outside
// [lo, hi].
func (a *args) int(key string, def, lo, hi int) int {
	s, ok := a.get(key, strconv.Itoa(def))
	if !ok {
		return def
	}
	v, err := strconv.Atoi(s)
	switch {
	case err != nil:
		a.fail("%s=%q: want an integer", key, s)
	case v < lo && hi == math.MaxInt:
		a.fail("%s=%d: want at least %d", key, v, lo)
	case v < lo || v > hi:
		a.fail("%s=%d: want %d to %d", key, v, lo, hi)
	default:
		return v
	}
	return def
}

// uint64 returns the unsigned parameter key (seeds), or def when absent.
func (a *args) uint64(key string, def uint64) uint64 {
	s, ok := a.get(key, strconv.FormatUint(def, 10))
	if !ok {
		return def
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		a.fail("%s=%q: want an unsigned integer", key, s)
		return def
	}
	return v
}

// millis returns the duration parameter key, given as integer virtual
// milliseconds, or def when absent.
func (a *args) millis(key string, def sim.Time) sim.Time {
	s, ok := a.get(key, strconv.FormatInt(int64(def/sim.Millisecond), 10))
	if !ok {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil || v < 0 {
		a.fail("%s=%q: want milliseconds as a non-negative integer", key, s)
		return def
	}
	return sim.Time(v) * sim.Millisecond
}

// policy builds the sub-policy named by parameter key (def when absent),
// sharing this argument list, so the inner policy's parameters ride
// along: "coplace:inner=threshold,limit=2". A key read twice means the
// spec nests a policy in itself ("pragma:fallback=pragma"), which would
// recurse forever.
func (a *args) policy(key, def string) numa.Policy {
	if a.used[key] {
		a.fail("%s=%q: a policy cannot nest itself", key, a.kv[key])
		return NewDefault()
	}
	name, _ := a.get(key, def)
	e, ok := lookup(name)
	if !ok {
		a.fail("%s=%q: unknown policy (known: %s)", key, name, strings.Join(Names(), ", "))
		return NewDefault()
	}
	return e.new(a)
}

// Parse builds a fresh policy instance from its command-line spelling:
// a registered name, optionally followed by ":key=val,key=val"
// parameters. Unknown names, malformed or out-of-range parameters and
// keys no policy reads are errors; the last lists every key the policy
// read, with its default.
func Parse(spec string) (numa.Policy, error) {
	name := strings.TrimSpace(spec)
	rest := ""
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name, rest = strings.TrimSpace(name[:i]), name[i+1:]
	}
	e, ok := lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown policy %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	a := &args{name: e.name, kv: map[string]string{}, used: map[string]bool{}}
	if rest != "" {
		for _, part := range strings.Split(rest, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			k, v, found := strings.Cut(part, "=")
			if !found || strings.TrimSpace(k) == "" {
				return nil, fmt.Errorf("policy %s: malformed parameter %q (want key=value)", e.name, part)
			}
			a.kv[strings.ToLower(strings.TrimSpace(k))] = strings.TrimSpace(v)
		}
	}
	pol := e.new(a)
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
		accepts := e.name
		if len(a.accepts) > 0 {
			accepts += ":" + strings.Join(a.accepts, ",")
		}
		return nil, fmt.Errorf("policy %s: unknown parameter(s) %s (accepts: %s)",
			e.name, strings.Join(unknown, ", "), accepts)
	}
	return pol, nil
}
