package main

import (
	"fmt"

	"repro/internal/centralized"
	"repro/internal/cfd"
	"repro/internal/stream"
)

// oracle answers "what must V be after the first k batches" from
// scratch: the base relation cloned, the same batches applied with
// UpdateList.Apply, then centralized.Detect. Answers are memoized per k.
type oracle struct {
	in   *inputs
	memo map[int]*cfd.Violations
}

func newOracle(in *inputs) *oracle { return &oracle{in: in, memo: make(map[int]*cfd.Violations)} }

// after returns V(Σ, D ⊕ ∆D₁ ⊕ … ⊕ ∆Dₖ), counting warm-up batches in k.
func (o *oracle) after(k int) (*cfd.Violations, error) {
	if v, ok := o.memo[k]; ok {
		return v, nil
	}
	mirror := o.in.rel.Clone()
	for i, b := range o.in.batches[:k] {
		if err := b.Normalize().Apply(mirror); err != nil {
			return nil, fmt.Errorf("oracle: batch %d: %w", i, err)
		}
	}
	v := centralized.Detect(mirror, o.in.rules)
	o.memo[k] = v
	return v, nil
}

// check reports whether got equals the oracle after k batches.
func (o *oracle) check(got *cfd.Violations, k int) error {
	want, err := o.after(k)
	if err != nil {
		return err
	}
	if !got.Equal(want) {
		return fmt.Errorf("V after %d batches differs from centralized.Detect (|V| %d, want %d)", k, got.Len(), want.Len())
	}
	return nil
}

// checkInMemory reports whether a disk-backed V is bit-identical to the
// in-memory engine's after the same k batches.
func checkInMemory(in *inputs, got *cfd.Violations, k int) error {
	eng, err := stream.NewCentralized(in.rel, in.rules)
	if err != nil {
		return err
	}
	for _, b := range in.batches[:k] {
		if _, err := eng.ApplyBatch(b.Normalize()); err != nil {
			return err
		}
	}
	want := eng.Violations()
	if !got.Equal(want) || got.Fingerprint() != want.Fingerprint() {
		return fmt.Errorf("disk-backed V after %d batches is not bit-identical to the in-memory engine", k)
	}
	return nil
}
