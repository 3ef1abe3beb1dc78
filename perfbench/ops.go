package main

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"lambdafs/internal/coordinator"
	"lambdafs/internal/namespace"
	"lambdafs/internal/rpc"
)

// plannedOp is one generated operation and what the model expects of it.
type plannedOp struct {
	kind  namespace.OpType
	path  string
	dest  string
	isDir bool  // OpMv or OpDelete of an own directory
	want  entry // read/stat target
}

// simClient is one simulated client: a goroutine on the virtual clock
// issuing operations through its rpc.Client.
type simClient struct {
	rc  *rpc.Client
	cm  *clientModel
	rng *rand.Rand
	w   *workloadSpec
	sab *sabotage

	attempted, failed int
	latUS             []int64 // virtual µs of each completed measured op
	lateUS            []int64 // open loop: dispatch minus due, virtual µs
	problems          []string
	nProblems         int
}

// Table 2's mix in basis points of 0.01 %: create 2.7, mkdirs 0.02,
// delete 0.75, mv 1.3, read 69.22, stat 17.0, ls 9.01.
var spotifyMix = []struct {
	op namespace.OpType
	bp int
}{
	{namespace.OpCreate, 270}, {namespace.OpMkdirs, 2}, {namespace.OpDelete, 75},
	{namespace.OpMv, 130}, {namespace.OpRead, 6922}, {namespace.OpStat, 1700},
	{namespace.OpLs, 901},
}

// planSpotify draws the next op of Table 2's mix. Reads, stats and
// listings target the preloaded shared namespace; mutations touch only
// the client's own names.
func (c *simClient) planSpotify() plannedOp {
	x := c.rng.Intn(10000)
	op := namespace.OpRead
	for _, w := range spotifyMix {
		if x < w.bp {
			op = w.op
			break
		}
		x -= w.bp
	}
	switch op {
	case namespace.OpRead, namespace.OpStat:
		p := c.cm.m.sharedFiles[c.rng.Intn(len(c.cm.m.sharedFiles))]
		return plannedOp{kind: op, path: p, want: c.cm.m.pre[p]}
	case namespace.OpLs:
		return plannedOp{kind: op, path: c.cm.randomSharedDir(c.rng)}
	case namespace.OpMkdirs:
		return plannedOp{kind: op, path: c.cm.freshName(c.cm.randomSharedDir(c.rng), "d")}
	case namespace.OpDelete:
		if len(c.cm.files) > 0 {
			return plannedOp{kind: op, path: c.cm.files[c.rng.Intn(len(c.cm.files))]}
		}
	case namespace.OpMv:
		if len(c.cm.files) > 0 {
			src := c.cm.files[c.rng.Intn(len(c.cm.files))]
			return plannedOp{kind: op, path: src, dest: c.cm.freshName(c.cm.randomSharedDir(c.rng), "f")}
		}
	}
	return plannedOp{kind: namespace.OpCreate, path: c.cm.freshName(c.cm.randomSharedDir(c.rng), "f")}
}

// planWrite draws the next op of the mutation-only mix: create 30 %,
// mkdirs 5 %, file delete 30 %, directory delete 5 %, file rename 25 %,
// directory rename 5 %. Deletes balance creates, so the namespace stays
// about the same size however long the run. Creates land in an own
// directory 30 % of the time, so directory renames and deletes work on
// small subtrees (at most maxDirFiles files). A directory is renamed
// within its own parent: a directory rename into another directory can
// deadlock with a file rename between the same two directories (see
// README.md), so it is left out.
func (c *simClient) planWrite() plannedOp {
	const maxDirFiles = 4
	x := c.rng.Intn(100)
	switch {
	case x < 5:
		return plannedOp{kind: namespace.OpMkdirs, path: c.cm.freshName(c.cm.randomSharedDir(c.rng), "d")}
	case x < 10:
		if len(c.cm.dirs) > 0 {
			return plannedOp{kind: namespace.OpDelete, path: c.cm.dirs[c.rng.Intn(len(c.cm.dirs))], isDir: true}
		}
	case x < 40:
		if len(c.cm.files) > 0 {
			return plannedOp{kind: namespace.OpDelete, path: c.cm.files[c.rng.Intn(len(c.cm.files))]}
		}
	case x < 65:
		if len(c.cm.files) > 0 {
			src := c.cm.files[c.rng.Intn(len(c.cm.files))]
			return plannedOp{kind: namespace.OpMv, path: src, dest: c.cm.freshName(c.cm.randomSharedDir(c.rng), "f")}
		}
	case x < 70:
		if len(c.cm.dirs) > 0 {
			src := c.cm.dirs[c.rng.Intn(len(c.cm.dirs))]
			return plannedOp{kind: namespace.OpMv, path: src, isDir: true,
				dest: c.cm.freshName(namespace.ParentPath(src), "d")}
		}
	}
	dir := c.cm.randomSharedDir(c.rng)
	if len(c.cm.dirs) > 0 && c.rng.Intn(10) < 3 {
		if d := c.cm.dirs[c.rng.Intn(len(c.cm.dirs))]; c.cm.inDir[d] < maxDirFiles {
			dir = d
		}
	}
	return plannedOp{kind: namespace.OpCreate, path: c.cm.freshName(dir, "f")}
}

// isProgramFailure reports the outcomes counted as failed operations
// rather than wrong answers: a transport failure after the client's
// retries, or the coordinator's ACK timeout surfacing from a write.
func isProgramFailure(resp *namespace.Response, err error) bool {
	if err != nil {
		return true
	}
	return strings.Contains(resp.Err, coordinator.ErrAckTimeout.Error())
}

// run issues op, checks the response against the model and applies it.
// It reports whether the op completed (did not fail).
func (c *simClient) run(op plannedOp) bool {
	c.attempted++
	resp, err := c.rc.Do(op.kind, op.path, op.dest)
	if c.sab != nil && err == nil {
		c.sab.alter(op.kind, resp)
	}
	if isProgramFailure(resp, err) {
		c.failed++
		c.reconcile(op)
		return false
	}
	if !resp.OK() {
		c.problem("%v %s %s: unexpected error %q", op.kind, op.path, op.dest, resp.Err)
		return true
	}
	switch op.kind {
	case namespace.OpRead:
		if resp.Stat == nil || resp.Stat.ID != op.want.id || resp.Stat.IsDir || len(resp.Blocks) == 0 {
			c.problem("read %s: got %s, want id=%d with blocks", op.path, describe(resp), op.want.id)
		}
	case namespace.OpStat:
		if resp.Stat == nil || resp.Stat.ID != op.want.id || resp.Stat.IsDir != op.want.isDir {
			c.problem("stat %s: got %s, want id=%d dir=%v", op.path, describe(resp), op.want.id, op.want.isDir)
		}
	case namespace.OpLs:
		c.checkList(op.path, resp.Entries)
	case namespace.OpCreate:
		if resp.ID == 0 {
			c.problem("create %s: no inode id", op.path)
		}
		c.cm.addFile(op.path, resp.ID)
	case namespace.OpMkdirs:
		if resp.ID == 0 {
			c.problem("mkdirs %s: no inode id", op.path)
		}
		c.cm.addDir(op.path, resp.ID)
	case namespace.OpDelete:
		c.applyDelete(op)
	case namespace.OpMv:
		c.applyMove(op)
	}
	return true
}

func (c *simClient) applyDelete(op plannedOp) {
	if op.isDir {
		c.cm.removeDir(op.path)
		return
	}
	c.cm.removeFile(op.path)
}

func (c *simClient) applyMove(op plannedOp) {
	if op.isDir {
		c.cm.moveDir(op.path, op.dest)
		return
	}
	id := c.cm.live[op.path].id
	c.cm.removeFile(op.path)
	c.cm.addFile(op.dest, id)
}

// checkList verifies a listing of a shared directory: every preloaded
// entry (none is ever removed) and every own live entry is present with
// its id, and nothing appears that no client ever created there.
func (c *simClient) checkList(dir string, got []namespace.DirEntry) {
	byName := make(map[string]namespace.DirEntry, len(got))
	for _, e := range got {
		byName[e.Name] = e
		if !c.cm.m.preNames[dir][e.Name] && !c.cm.m.everCreated(dir, e.Name) {
			c.problem("ls %s: entry %q was never created there", dir, e.Name)
		}
	}
	for name := range c.cm.m.preNames[dir] {
		if e, ok := byName[name]; !ok || e.ID != c.cm.m.pre[dir+"/"+name].id {
			c.problem("ls %s: preloaded entry %q missing or changed", dir, name)
		}
	}
	for p, want := range c.cm.live {
		if namespace.ParentPath(p) != dir {
			continue
		}
		if e, ok := byName[namespace.BaseName(p)]; !ok || e.ID != want.id || e.IsDir != want.isDir {
			c.problem("ls %s: own entry %q missing or changed", dir, namespace.BaseName(p))
		}
	}
}

// reconcile learns the outcome of a failed mutation with stats that are
// not counted as operations, so the model stays exact for the final
// namespace check.
func (c *simClient) reconcile(op plannedOp) {
	switch op.kind {
	case namespace.OpCreate, namespace.OpMkdirs:
		if st, ok := c.probe(op.path); ok {
			if op.kind == namespace.OpCreate {
				c.cm.addFile(op.path, st.ID)
			} else {
				c.cm.addDir(op.path, st.ID)
			}
		}
	case namespace.OpDelete:
		if _, ok := c.probe(op.path); !ok {
			c.applyDelete(op)
		}
	case namespace.OpMv:
		if _, ok := c.probe(op.dest); ok {
			c.applyMove(op)
		}
	}
}

// probe stats path, retrying transport failures; it reports whether the
// path exists.
func (c *simClient) probe(path string) (*namespace.StatInfo, bool) {
	for i := 0; i < 5; i++ {
		resp, err := c.rc.Do(namespace.OpStat, path, "")
		if err != nil {
			continue
		}
		if errors.Is(resp.Error(), namespace.ErrNotFound) {
			return nil, false
		}
		if resp.OK() && resp.Stat != nil {
			return resp.Stat, true
		}
	}
	c.problem("could not learn the state of %s after a failed op", path)
	return nil, false
}

func (c *simClient) problem(format string, args ...any) {
	c.nProblems++
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func describe(resp *namespace.Response) string {
	if resp.Stat == nil {
		return fmt.Sprintf("no stat (%d blocks)", len(resp.Blocks))
	}
	return fmt.Sprintf("id=%d dir=%v (%d blocks)", resp.Stat.ID, resp.Stat.IsDir, len(resp.Blocks))
}
