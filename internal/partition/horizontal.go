package partition

import (
	"fmt"
	"strconv"

	"repro/internal/cfd"
	"repro/internal/relation"
	"repro/internal/xerr"
)

// PredicateKind enumerates the selection predicate forms Fi supported for
// horizontal fragments.
type PredicateKind int

const (
	// PredInSet matches tuples whose Attr value belongs to Values
	// (grade = 'A' style predicates from the paper's EMP example are the
	// single-value case).
	PredInSet PredicateKind = iota
	// PredHashMod matches tuples with hash(value(Attr)) mod Mod == Rem;
	// the generic disjoint scheme used by the experiment harness.
	PredHashMod
	// PredIDMod matches tuples with TupleID mod Mod == Rem, ignoring
	// Attr. Useful when no categorical attribute exists.
	PredIDMod
)

// Predicate is a selection predicate Fi identifying one horizontal
// fragment.
type Predicate struct {
	Kind   PredicateKind
	Attr   string
	Values []string
	Mod    int
	Rem    int
}

// Match reports whether tuple t satisfies the predicate.
func (p Predicate) Match(s *relation.Schema, t relation.Tuple) bool {
	switch p.Kind {
	case PredInSet:
		v := t.Values[s.MustIndex(p.Attr)]
		for _, w := range p.Values {
			if v == w {
				return true
			}
		}
		return false
	case PredHashMod:
		v := t.Values[s.MustIndex(p.Attr)]
		return int(hashString(v))%p.Mod == p.Rem
	case PredIDMod:
		return int(t.ID%relation.TupleID(p.Mod)) == p.Rem
	default:
		return false
	}
}

// Attrs returns X_Fi, the attributes the predicate mentions.
func (p Predicate) Attrs() []string {
	switch p.Kind {
	case PredInSet, PredHashMod:
		return []string{p.Attr}
	default:
		return nil
	}
}

// ExcludesConstants reports whether Fi ∧ Fφ is unsatisfiable, where Fφ
// binds the given attributes to constants (the pattern constants of a
// CFD). When true, no tuple of this fragment can match the CFD's pattern,
// so the fragment can be skipped entirely — §6's local-check rule (2)(b).
func (p Predicate) ExcludesConstants(constAttrs, constVals []string) bool {
	for i, a := range constAttrs {
		if a != p.Attr {
			continue
		}
		switch p.Kind {
		case PredInSet:
			found := false
			for _, w := range p.Values {
				if w == constVals[i] {
					found = true
					break
				}
			}
			if !found {
				return true
			}
		case PredHashMod:
			if int(hashString(constVals[i]))%p.Mod != p.Rem {
				return true
			}
		}
	}
	return false
}

func (p Predicate) String() string {
	switch p.Kind {
	case PredInSet:
		return fmt.Sprintf("%s ∈ %v", p.Attr, p.Values)
	case PredHashMod:
		return fmt.Sprintf("hash(%s) mod %d = %d", p.Attr, p.Mod, p.Rem)
	case PredIDMod:
		return "id mod " + strconv.Itoa(p.Mod) + " = " + strconv.Itoa(p.Rem)
	default:
		return fmt.Sprintf("Predicate(kind=%d)", int(p.Kind))
	}
}

// HorizontalScheme is a list of disjoint, covering predicates; fragment i
// is σ_{Preds[i]}(D).
type HorizontalScheme struct {
	Preds []Predicate
}

// NumSites returns n.
func (hs *HorizontalScheme) NumSites() int { return len(hs.Preds) }

// HashHorizontal builds the generic disjoint covering scheme: n fragments
// by hash of the given attribute's value.
func HashHorizontal(attr string, numSites int) *HorizontalScheme {
	preds := make([]Predicate, numSites)
	for i := range preds {
		preds[i] = Predicate{Kind: PredHashMod, Attr: attr, Mod: numSites, Rem: i}
	}
	return &HorizontalScheme{Preds: preds}
}

// IDHorizontal builds n fragments by TupleID modulus.
func IDHorizontal(numSites int) *HorizontalScheme {
	preds := make([]Predicate, numSites)
	for i := range preds {
		preds[i] = Predicate{Kind: PredIDMod, Mod: numSites, Rem: i}
	}
	return &HorizontalScheme{Preds: preds}
}

// BySetHorizontal builds fragments from explicit value sets over attr
// (e.g. grade ∈ {A}, {B}, {C} as in the paper's Fig. 2).
func BySetHorizontal(attr string, valueSets [][]string) *HorizontalScheme {
	preds := make([]Predicate, len(valueSets))
	for i, vs := range valueSets {
		preds[i] = Predicate{Kind: PredInSet, Attr: attr, Values: vs}
	}
	return &HorizontalScheme{Preds: preds}
}

// SiteFor returns the fragment owning tuple t, or an error if t does
// not carry one value per attribute (an id-only delete has no values to
// route by) or the scheme is not covering / not disjoint for t.
func (hs *HorizontalScheme) SiteFor(s *relation.Schema, t relation.Tuple) (int, error) {
	if len(t.Values) != s.Width() {
		return 0, fmt.Errorf("partition: tuple %d has %d values, want %d: %w", t.ID, len(t.Values), s.Width(), xerr.ErrArityMismatch)
	}
	site := -1
	for i, p := range hs.Preds {
		if p.Match(s, t) {
			if site >= 0 {
				return 0, fmt.Errorf("partition: tuple %d matches fragments %d and %d (scheme not disjoint)", t.ID, site, i)
			}
			site = i
		}
	}
	if site < 0 {
		return 0, fmt.Errorf("partition: tuple %d matches no fragment (scheme not covering)", t.ID)
	}
	return site, nil
}

// PartitionHorizontal splits rel into per-site fragment relations sharing
// the base schema.
func PartitionHorizontal(rel *relation.Relation, hs *HorizontalScheme) ([]*relation.Relation, error) {
	frags := make([]*relation.Relation, hs.NumSites())
	for i := range frags {
		frags[i] = relation.New(rel.Schema)
	}
	var outerErr error
	rel.Each(func(t relation.Tuple) bool {
		site, err := hs.SiteFor(rel.Schema, t)
		if err != nil {
			outerErr = err
			return false
		}
		if err := frags[site].Insert(t); err != nil {
			outerErr = err
			return false
		}
		return true
	})
	if outerErr != nil {
		return nil, outerErr
	}
	return frags, nil
}

// ReconstructHorizontal unions fragments back into one relation; the
// inverse of PartitionHorizontal.
func ReconstructHorizontal(s *relation.Schema, frags []*relation.Relation) (*relation.Relation, error) {
	out := relation.New(s)
	for fi, f := range frags {
		var insertErr error
		f.Each(func(t relation.Tuple) bool {
			if err := out.Insert(t); err != nil {
				insertErr = fmt.Errorf("partition: fragment %d: %w", fi, err)
				return false
			}
			return true
		})
		if insertErr != nil {
			return nil, insertErr
		}
	}
	return out, nil
}

// LocallyCheckable reports whether rule φ never needs cross-fragment
// comparison under this scheme: §6's local-check rule (2)(a), X_Fi ⊆ X for
// every fragment predicate. Tuples agreeing on X then always live in the
// same fragment, so variable-CFD groups never span sites.
func (hs *HorizontalScheme) LocallyCheckable(rule *cfd.CFD) bool {
	lhs := make(map[string]bool, len(rule.LHS))
	for _, a := range rule.LHS {
		lhs[a] = true
	}
	for _, p := range hs.Preds {
		// PredIDMod partitions by tuple id, which is never an FD
		// attribute: co-grouped tuples may land anywhere.
		if p.Kind == PredIDMod {
			return false
		}
		for _, a := range p.Attrs() {
			if !lhs[a] {
				return false
			}
		}
	}
	return true
}
