package lint

import (
	"go/ast"
	"go/types"
)

// EpochKey guards the incremental-advise invalidation contract
// (PR 8): every evaluator-level cache entry must carry the epoch
// stamp it was computed under, because the stamp is the only thing
// that lets a later lookup distinguish "still valid", "refreshable
// chunk-by-chunk" and "recompute". Two shapes violate it. A map
// whose values are raw *engine.ChunkedSelection — the one selection
// type, also spelled *engine.Bitmap through its alias — is a cache
// with no stamp at all — after a mutation it serves stale
// selections with no way to notice (store a stamp-carrying entry
// struct instead). And a keyed composite literal of a stamp-carrying
// entry struct that omits the stamp field builds an entry that can
// never be validated — it would read as permanently fresh or
// permanently stale depending on the nil-handling of the check.
// The engine package itself is out of scope: it defines the stamp
// machinery and documents nil-stamp sentinels (ChunkSummary).
var EpochKey = &Analyzer{
	Name: "epochkey",
	Doc: "evaluator cache entries must carry their epoch stamp: no raw " +
		"selection maps, no entry literals that omit the stamp field",
	Applies: func(pkgPath string) bool {
		return pkgPath == "charles" || pathIn(pkgPath, "charles/internal/seg")
	},
	Run: runEpochKey,
}

func runEpochKey(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.MapType:
				if tv, ok := pass.Info.Types[n.Value]; ok {
					if name, raw := rawSelectionType(tv.Type); raw {
						pass.Reportf(n.Pos(),
							"map holds raw *engine.%s values: a cache without an epoch stamp serves stale selections after a mutation; store a stamp-carrying entry struct", name)
					}
				}
			case *ast.CompositeLit:
				checkStampLiteral(pass, n)
			}
			return true
		})
	}
	return nil
}

// rawSelectionType reports whether t is a pointer to the engine's
// selection type, under any alias of it.
func rawSelectionType(t types.Type) (string, bool) {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return "", false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "charles/internal/engine" || obj.Name() != "ChunkedSelection" {
		return "", false
	}
	return obj.Name(), true
}

// isStampPtr reports whether t is *engine.EpochStamp.
func isStampPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "charles/internal/engine" && obj.Name() == "EpochStamp"
}

// checkStampLiteral flags keyed composite literals of stamp-carrying
// structs that omit the stamp field. Empty literals are zero values,
// not cache inserts, and unkeyed literals necessarily list every
// field — both pass.
func checkStampLiteral(pass *Pass, lit *ast.CompositeLit) {
	tv, ok := pass.Info.Types[lit]
	if !ok {
		return
	}
	st, ok := tv.Type.Underlying().(*types.Struct)
	if !ok {
		return
	}
	stampField := ""
	for i := 0; i < st.NumFields(); i++ {
		if isStampPtr(st.Field(i).Type()) {
			stampField = st.Field(i).Name()
			break
		}
	}
	if stampField == "" || len(lit.Elts) == 0 {
		return
	}
	if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); !keyed {
		return
	}
	for _, elt := range lit.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == stampField {
				return
			}
		}
	}
	pass.Reportf(lit.Pos(),
		"%s literal omits its epoch stamp field %q: an unstamped cache entry can never be validated or refreshed", types.TypeString(tv.Type, func(p *types.Package) string { return p.Name() }), stampField)
}
