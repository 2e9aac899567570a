package lrc

import (
	"context"
	"errors"

	"repro/internal/rdb"
	"repro/internal/storage"
	"repro/internal/wire"
)

// Catalog operations. Each wraps the corresponding rdb operation and, for
// mutations that change the set of registered logical names, records the
// change for the Bloom filter and the incremental-update buffer.
//
// The ctx.Err() check at each entry is the cancellation boundary for the
// rdb layer, whose single-item operations take no context: a cancelled
// context stops the operation before it touches storage. Mapping writes
// pass ctx on to the storage batch, whose durability wait honours it.

// CreateMapping registers a new logical name with its first target.
func (s *Service) CreateMapping(ctx context.Context, logical, target string) error {
	return s.createMappings(ctx, []wire.Mapping{{Logical: logical, Target: target}})[0]
}

// AddMapping adds another target to an existing logical name. The set of
// logical names is unchanged, so no soft-state delta is recorded.
func (s *Service) AddMapping(ctx context.Context, logical, target string) error {
	return s.addMappings(ctx, []wire.Mapping{{Logical: logical, Target: target}})[0]
}

// DeleteMapping removes one mapping; if the logical name's last mapping is
// gone the name itself is unregistered and the delta recorded.
func (s *Service) DeleteMapping(ctx context.Context, logical, target string) error {
	return s.deleteMappings(ctx, []wire.Mapping{{Logical: logical, Target: target}})[0]
}

// BulkOutcome reports per-element failures of a bulk mutation.
type BulkOutcome struct {
	Failures []wire.BulkFailure
}

// statusFor maps rdb errors onto wire statuses.
func statusFor(err error) wire.Status {
	switch {
	case err == nil:
		return wire.StatusOK
	case errors.Is(err, rdb.ErrExists):
		return wire.StatusExists
	case errors.Is(err, rdb.ErrNotFound):
		return wire.StatusNotFound
	case errors.Is(err, rdb.ErrInvalid):
		return wire.StatusBadRequest
	default:
		return wire.StatusInternal
	}
}

// outcome collects the per-element failures of a bulk mutation at their
// request indices — the paper's bulk operations "aggregate multiple requests
// in a single packet to reduce request overhead" and proceed past individual
// failures.
func outcome(errs []error) BulkOutcome {
	var out BulkOutcome
	for i, err := range errs {
		if err != nil {
			out.Failures = append(out.Failures, wire.BulkFailure{
				Index:  uint32(i),
				Status: statusFor(err),
				Msg:    err.Error(),
			})
		}
	}
	return out
}

// BulkCreate creates many mappings in one storage batch.
func (s *Service) BulkCreate(ctx context.Context, mappings []wire.Mapping) BulkOutcome {
	return outcome(s.createMappings(ctx, mappings))
}

// BulkAdd adds many mappings in one storage batch.
func (s *Service) BulkAdd(ctx context.Context, mappings []wire.Mapping) BulkOutcome {
	return outcome(s.addMappings(ctx, mappings))
}

// BulkDelete deletes many mappings in one storage batch.
func (s *Service) BulkDelete(ctx context.Context, mappings []wire.Mapping) BulkOutcome {
	return outcome(s.deleteMappings(ctx, mappings))
}

// owned splits a mapping write: errs holds one slot per mapping, already
// filled for the mappings this LRC must refuse (cancelled ctx, another
// shard's name); the rest are returned in order with their request indices.
func (s *Service) owned(ctx context.Context, mappings []wire.Mapping) (errs []error, mine []wire.Mapping, idx []int) {
	errs = make([]error, len(mappings))
	if err := ctx.Err(); err != nil {
		for i := range errs {
			errs[i] = err
		}
		return errs, nil, nil
	}
	for i, m := range mappings {
		if err := s.checkOwner(m.Logical); err != nil {
			errs[i] = err
			continue
		}
		mine = append(mine, m)
		idx = append(idx, i)
	}
	return errs, mine, idx
}

func (s *Service) createMappings(ctx context.Context, mappings []wire.Mapping) []error {
	errs, mine, idx := s.owned(ctx, mappings)
	for j, err := range s.db.BulkCreate(ctx, mine) {
		errs[idx[j]] = err
		// A create whose durability went unconfirmed is still in the
		// catalog, so soft state must carry it.
		if err == nil || errors.Is(err, storage.ErrNotDurable) {
			s.noteLogicalAdded(ctx, mine[j].Logical)
		}
	}
	return errs
}

func (s *Service) addMappings(ctx context.Context, mappings []wire.Mapping) []error {
	errs, mine, idx := s.owned(ctx, mappings)
	for j, err := range s.db.BulkAdd(ctx, mine) {
		errs[idx[j]] = err
	}
	return errs
}

func (s *Service) deleteMappings(ctx context.Context, mappings []wire.Mapping) []error {
	errs, mine, idx := s.owned(ctx, mappings)
	dbErrs, unregistered := s.db.BulkDelete(ctx, mine)
	for j, err := range dbErrs {
		errs[idx[j]] = err
		if unregistered[j] { // set by the delete itself, whatever its durability
			s.noteLogicalRemoved(ctx, mine[j].Logical)
		}
	}
	return errs
}

// GetTargets returns the targets of a logical name.
func (s *Service) GetTargets(ctx context.Context, logical string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.GetTargets(logical)
}

// GetLogicals returns the logical names of a target.
func (s *Service) GetLogicals(ctx context.Context, target string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.GetLogicals(target)
}

// WildcardTargets finds mappings by logical-name wildcard.
func (s *Service) WildcardTargets(ctx context.Context, pattern string) ([]wire.Mapping, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.WildcardTargets(pattern)
}

// WildcardLogicals finds mappings by target-name wildcard.
func (s *Service) WildcardLogicals(ctx context.Context, pattern string) ([]wire.Mapping, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.WildcardLogicals(pattern)
}

// BulkGetTargets resolves many logical names.
func (s *Service) BulkGetTargets(ctx context.Context, names []string) []wire.BulkNameResult {
	out := make([]wire.BulkNameResult, 0, len(names))
	for _, n := range names {
		values, err := s.GetTargets(ctx, n)
		out = append(out, wire.BulkNameResult{Name: n, Found: err == nil, Values: values})
	}
	return out
}

// BulkGetLogicals resolves many target names.
func (s *Service) BulkGetLogicals(ctx context.Context, names []string) []wire.BulkNameResult {
	out := make([]wire.BulkNameResult, 0, len(names))
	for _, n := range names {
		values, err := s.GetLogicals(ctx, n)
		out = append(out, wire.BulkNameResult{Name: n, Found: err == nil, Values: values})
	}
	return out
}

// Attribute operations delegate to the database.

// DefineAttribute declares an attribute.
func (s *Service) DefineAttribute(ctx context.Context, name string, obj wire.ObjType, typ wire.AttrType) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.db.DefineAttribute(name, obj, typ)
}

// UndefineAttribute removes an attribute definition.
func (s *Service) UndefineAttribute(ctx context.Context, name string, obj wire.ObjType, clearValues bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.db.UndefineAttribute(name, obj, clearValues)
}

// AddAttribute attaches an attribute value to an object.
func (s *Service) AddAttribute(ctx context.Context, key string, obj wire.ObjType, name string, v wire.AttrValue) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.db.AddAttribute(key, obj, name, v)
}

// ModifyAttribute replaces an attribute value on an object.
func (s *Service) ModifyAttribute(ctx context.Context, key string, obj wire.ObjType, name string, v wire.AttrValue) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.db.ModifyAttribute(key, obj, name, v)
}

// RemoveAttribute detaches an attribute value from an object.
func (s *Service) RemoveAttribute(ctx context.Context, key string, obj wire.ObjType, name string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.db.RemoveAttribute(key, obj, name)
}

// GetAttributes lists attribute values on an object.
func (s *Service) GetAttributes(ctx context.Context, key string, obj wire.ObjType, names []string) ([]wire.NamedAttr, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.GetAttributes(key, obj, names)
}

// SearchAttribute finds objects by attribute comparison.
func (s *Service) SearchAttribute(ctx context.Context, name string, obj wire.ObjType, cmp wire.CmpOp, probe wire.AttrValue) ([]wire.ObjAttr, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.SearchAttribute(name, obj, cmp, probe)
}

// ListAttributeDefs lists attribute definitions.
func (s *Service) ListAttributeDefs(ctx context.Context, obj wire.ObjType) ([]wire.AttrDef, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.ListAttributeDefs(obj)
}

// BulkAddAttributes attaches many attribute values.
func (s *Service) BulkAddAttributes(ctx context.Context, items []wire.AttrWriteRequest) BulkOutcome {
	var out BulkOutcome
	for i, it := range items {
		if err := s.AddAttribute(ctx, it.Key, it.Obj, it.Name, it.Value); err != nil {
			out.Failures = append(out.Failures, wire.BulkFailure{Index: uint32(i), Status: statusFor(err), Msg: err.Error()})
		}
	}
	return out
}

// BulkRemoveAttributes detaches many attribute values.
func (s *Service) BulkRemoveAttributes(ctx context.Context, items []wire.AttrRemoveRequest) BulkOutcome {
	var out BulkOutcome
	for i, it := range items {
		if err := s.RemoveAttribute(ctx, it.Key, it.Obj, it.Name); err != nil {
			out.Failures = append(out.Failures, wire.BulkFailure{Index: uint32(i), Status: statusFor(err), Msg: err.Error()})
		}
	}
	return out
}

// RLI target management.

// AddRLITarget starts updating an RLI (persisted in t_rli/t_rlipartition).
func (s *Service) AddRLITarget(ctx context.Context, spec wire.RLITarget) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	tg, err := compileTarget(spec)
	if err != nil {
		return errors.Join(rdb.ErrInvalid, err)
	}
	if err := s.db.AddRLITarget(spec); err != nil {
		return err
	}
	s.mu.Lock()
	old := s.targets[spec.URL]
	s.targets[spec.URL] = tg
	s.mu.Unlock()
	if old != nil {
		old.closeUpdater()
	}
	return nil
}

// RemoveRLITarget stops updating an RLI.
func (s *Service) RemoveRLITarget(ctx context.Context, url string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.db.RemoveRLITarget(url); err != nil {
		return err
	}
	s.mu.Lock()
	old := s.targets[url]
	delete(s.targets, url)
	s.mu.Unlock()
	if old != nil {
		old.closeUpdater()
	}
	return nil
}

// ListRLITargets returns the RLIs this LRC updates.
func (s *Service) ListRLITargets(ctx context.Context) ([]wire.RLITarget, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.db.ListRLITargets()
}
