package apistable_test

import (
	"strings"
	"testing"

	"github.com/dataspread/dataspread/internal/lint/apistable"
	"github.com/dataspread/dataspread/internal/lint/linttest"
)

func TestApistable(t *testing.T) {
	linttest.Run(t, "testdata/imports", apistable.New(map[string][]string{
		"": {"internal/api"},
	}))
}

// TestBtreeStaysInternal: the B-tree owns an on-disk page format, so no
// package outside internal/ may be blessed to reach it (or a parent that
// would cover it) — persisted indexes are touched through sqlexec only.
func TestBtreeStaysInternal(t *testing.T) {
	const btree = "internal/index/btree"
	for importer, targets := range apistable.Blessed {
		for _, target := range targets {
			if target == btree || strings.HasPrefix(btree, target+"/") {
				t.Errorf("%q is blessed to import %s, which covers %s", importer, target, btree)
			}
		}
	}
}
