package hierarchy

import "repro/internal/jimple"

// State is a deep copy of everything a Hierarchy stores, for tests that
// assert a shared base layer is never written.
type State struct {
	SubsOf, SupersOf map[string][]string
	MethodIdx        map[string]map[string]*jimple.Method
	SuperOf          map[string]string
	Bodied           []*jimple.Class
	Memo             map[dispatchKey][]*jimple.Method
}

// Snapshot copies h's indexes and dispatch memo.
func Snapshot(h *Hierarchy) State {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := State{
		SubsOf:    make(map[string][]string, len(h.subsOf)),
		SupersOf:  make(map[string][]string, len(h.supersOf)),
		MethodIdx: make(map[string]map[string]*jimple.Method, len(h.methodIdx)),
		SuperOf:   make(map[string]string, len(h.superOf)),
		Bodied:    append([]*jimple.Class(nil), h.bodied...),
		Memo:      make(map[dispatchKey][]*jimple.Method, len(h.dispatchMemo)),
	}
	for k, v := range h.subsOf {
		s.SubsOf[k] = append([]string(nil), v...)
	}
	for k, v := range h.supersOf {
		s.SupersOf[k] = append([]string(nil), v...)
	}
	for k, v := range h.methodIdx {
		mm := make(map[string]*jimple.Method, len(v))
		for sub, m := range v {
			mm[sub] = m
		}
		s.MethodIdx[k] = mm
	}
	for k, v := range h.superOf {
		s.SuperOf[k] = v
	}
	for k, v := range h.dispatchMemo {
		s.Memo[k] = append([]*jimple.Method(nil), v...)
	}
	return s
}
