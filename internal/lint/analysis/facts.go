package analysis

// This file is the cross-package half of the analysis layer: durable,
// object-keyed facts. An analyzer computing a package exports facts
// about that package's objects (a function's taint summary, a struct's
// annotated fields); analyzers of downstream packages import them at
// call/use sites, so interprocedural reasoning crosses package
// boundaries instead of stopping at one package-local hop.
//
// Every package of a run shares one FactSet, and packages are visited
// in dependency order, so an import simply sees what a dependency
// exported moments ago. Facts are keyed by coordinates (package path,
// object key, fact type), not by object identity: a dependency's
// objects seen through export data are distinct from the ones its own
// source typecheck produced, yet must resolve the same facts.

import (
	"go/types"
	"reflect"
)

// A Fact is one exported observation about a package-level object.
// Implementations must be pointers to structs. The AFact method is a
// marker only.
type Fact interface {
	AFact()
}

// FactKey addresses one fact: the declaring package's import path, the
// object's stable key within it, and the fact's concrete type.
type FactKey struct {
	Pkg  string
	Obj  string
	Type string
}

// ObjectKey returns the stable within-package key of a package-level
// object: "Name" for functions, types, vars and consts, and
// "RecvType.Name" for methods (the pointer-ness of the receiver does not
// key — a type has one method set namespace).
func ObjectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return n.Obj().Name() + "." + fn.Name()
			}
		}
	}
	return obj.Name()
}

// factPkgPath returns the package path a fact about obj is keyed under.
func factPkgPath(obj types.Object) (string, bool) {
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	return obj.Pkg().Path(), true
}

func factTypeName(f Fact) string {
	return reflect.TypeOf(f).Elem().Name()
}

// A FactSet is the fact store one analysis run shares: facts exported by
// already-analyzed packages, keyed for import by downstream ones.
type FactSet struct {
	m map[FactKey]Fact
}

// NewFactSet returns an empty fact store.
func NewFactSet() *FactSet {
	return &FactSet{m: map[FactKey]Fact{}}
}

// Len reports the number of stored facts.
func (s *FactSet) Len() int { return len(s.m) }

// ExportObjectFact stores fact about obj, replacing a previous fact of
// the same type.
func (s *FactSet) ExportObjectFact(obj types.Object, fact Fact) {
	pkg, ok := factPkgPath(obj)
	if !ok {
		return
	}
	s.m[FactKey{Pkg: pkg, Obj: ObjectKey(obj), Type: factTypeName(fact)}] = fact
}

// ImportObjectFact copies the stored fact of ptr's type about obj into
// *ptr and reports whether one was found.
func (s *FactSet) ImportObjectFact(obj types.Object, ptr Fact) bool {
	pkg, ok := factPkgPath(obj)
	if !ok {
		return false
	}
	f, ok := s.m[FactKey{Pkg: pkg, Obj: ObjectKey(obj), Type: factTypeName(ptr)}]
	if !ok {
		return false
	}
	pv, fv := reflect.ValueOf(ptr), reflect.ValueOf(f)
	if pv.Type() != fv.Type() {
		return false
	}
	pv.Elem().Set(fv.Elem())
	return true
}
