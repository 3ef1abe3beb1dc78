package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"lambdafs/internal/namespace"
	"lambdafs/internal/ndb"
	"lambdafs/internal/partition"
)

// entry is one path the model expects in the namespace.
type entry struct {
	id    namespace.INodeID
	isDir bool
}

// model is the benchmark's own record of the namespace. The preloaded
// shared directories and files are read-only; every client mutates only
// names carrying its own prefix, so each op's outcome follows from that
// client's history alone, however clients interleave.
type model struct {
	sharedDirs  []string
	sharedFiles []string
	pre         map[string]entry           // every preloaded path, "/" excluded
	preNames    map[string]map[string]bool // shared dir -> preloaded child names
	clients     []*clientModel

	mu      sync.Mutex
	created map[string]map[string]bool // dir -> names ever created there
}

// preload installs dirs×files preloaded entries into db with IDs the
// model knows, and returns the model. The shared directories are spread
// evenly over the deployments, which route a path by its parent.
func preload(db *ndb.DB, ring *partition.Ring, dirs, files int) *model {
	m := &model{
		pre:      make(map[string]entry),
		preNames: make(map[string]map[string]bool),
		created:  make(map[string]map[string]bool),
	}
	nodes := make([]*namespace.INode, 0, dirs*(files+1))
	next := namespace.RootID
	perDep := make([]int, ring.Deployments())
	quota := (dirs + len(perDep) - 1) / len(perDep)
	for cand := 0; len(m.sharedDirs) < dirs; cand++ {
		dir := fmt.Sprintf("/shared%03d", cand)
		dep := ring.DeploymentForPath(dir + "/x")
		if perDep[dep] >= quota {
			continue
		}
		perDep[dep]++
		next++
		dirID := next
		m.sharedDirs = append(m.sharedDirs, dir)
		m.pre[dir] = entry{id: dirID, isDir: true}
		m.preNames[dir] = make(map[string]bool)
		nodes = append(nodes, &namespace.INode{
			ID: dirID, ParentID: namespace.RootID, Name: namespace.BaseName(dir),
			IsDir: true, Perm: namespace.PermDefaultDir, Owner: "hdfs", Group: "hdfs",
		})
		for f := 0; f < files; f++ {
			next++
			name := fmt.Sprintf("file%04d", f)
			path := dir + "/" + name
			m.sharedFiles = append(m.sharedFiles, path)
			m.pre[path] = entry{id: next}
			m.preNames[dir][name] = true
			nodes = append(nodes, &namespace.INode{
				ID: next, ParentID: dirID, Name: name,
				Perm: namespace.PermDefaultFile, Owner: "hdfs", Group: "hdfs",
				Size: 128 << 20,
				Blocks: []namespace.Block{{ID: namespace.BlockID(next), Size: 128 << 20,
					Locations: []string{"dn1", "dn2", "dn3"}}},
			})
		}
	}
	db.Preload(nodes)
	return m
}

// noteCreated records that name may appear under dir from now on; it is
// called before the op that creates it is issued, so a concurrent ls of
// dir never sees a name the model does not know.
func (m *model) noteCreated(path string) {
	dir, name := namespace.ParentPath(path), namespace.BaseName(path)
	m.mu.Lock()
	if m.created[dir] == nil {
		m.created[dir] = make(map[string]bool)
	}
	m.created[dir][name] = true
	m.mu.Unlock()
}

func (m *model) everCreated(dir, name string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.created[dir][name]
}

// expected returns every path the namespace must hold once all clients
// have stopped.
func (m *model) expected() map[string]entry {
	out := make(map[string]entry, len(m.pre))
	for p, e := range m.pre {
		out[p] = e
	}
	for _, c := range m.clients {
		for p, e := range c.live {
			out[p] = e
		}
	}
	return out
}

// clientModel is one client's private part of the namespace.
type clientModel struct {
	m      *model
	prefix string
	seq    int
	live   map[string]entry // own live paths
	files  []string         // own live files
	fileAt map[string]int
	dirs   []string // own live directories (children of shared dirs)
	dirAt  map[string]int
	// inDir counts own files directly inside each own directory.
	inDir map[string]int
}

func (m *model) newClient(i int) *clientModel {
	c := &clientModel{
		m:      m,
		prefix: fmt.Sprintf("c%03d-", i),
		live:   make(map[string]entry),
		fileAt: make(map[string]int),
		dirAt:  make(map[string]int),
		inDir:  make(map[string]int),
	}
	m.clients = append(m.clients, c)
	return c
}

// freshName returns a never-used private name under dir.
func (c *clientModel) freshName(dir, kind string) string {
	c.seq++
	p := fmt.Sprintf("%s/%s%s%d", dir, c.prefix, kind, c.seq)
	c.m.noteCreated(p)
	return p
}

func (c *clientModel) randomSharedDir(rng *rand.Rand) string {
	return c.m.sharedDirs[rng.Intn(len(c.m.sharedDirs))]
}

func (c *clientModel) addFile(p string, id namespace.INodeID) {
	c.live[p] = entry{id: id}
	c.fileAt[p] = len(c.files)
	c.files = append(c.files, p)
	if dir := namespace.ParentPath(p); c.isOwnDir(dir) {
		c.inDir[dir]++
	}
}

func (c *clientModel) removeFile(p string) {
	i := c.fileAt[p]
	last := c.files[len(c.files)-1]
	c.files[i] = last
	c.fileAt[last] = i
	c.files = c.files[:len(c.files)-1]
	delete(c.fileAt, p)
	delete(c.live, p)
	if dir := namespace.ParentPath(p); c.isOwnDir(dir) {
		c.inDir[dir]--
	}
}

func (c *clientModel) isOwnDir(p string) bool {
	_, ok := c.dirAt[p]
	return ok
}

func (c *clientModel) addDir(p string, id namespace.INodeID) {
	c.live[p] = entry{id: id, isDir: true}
	c.dirAt[p] = len(c.dirs)
	c.dirs = append(c.dirs, p)
}

// removeDir deletes own directory p and the files under it.
func (c *clientModel) removeDir(p string) {
	for i := 0; i < len(c.files); {
		if f := c.files[i]; strings.HasPrefix(f, p+"/") {
			c.removeFile(f) // moves the last file into slot i
			continue
		}
		i++
	}
	i := c.dirAt[p]
	last := c.dirs[len(c.dirs)-1]
	c.dirs[i] = last
	c.dirAt[last] = i
	c.dirs = c.dirs[:len(c.dirs)-1]
	delete(c.dirAt, p)
	delete(c.inDir, p)
	delete(c.live, p)
}

// moveDir renames own directory src (and the files under it) to dst.
func (c *clientModel) moveDir(src, dst string) {
	i := c.dirAt[src]
	c.dirs[i] = dst
	delete(c.dirAt, src)
	c.dirAt[dst] = i
	c.inDir[dst] = c.inDir[src]
	delete(c.inDir, src)
	c.live[dst] = c.live[src]
	delete(c.live, src)
	for j, f := range c.files {
		if strings.HasPrefix(f, src+"/") {
			nf := dst + f[len(src):]
			c.files[j] = nf
			delete(c.fileAt, f)
			c.fileAt[nf] = j
			c.live[nf] = c.live[f]
			delete(c.live, f)
		}
	}
}

// checkNamespace compares the store's namespace, walked from the root
// through ListSubtree, with want; it returns one line per difference.
func checkNamespace(db interface {
	ListSubtree(namespace.INodeID) ([]*namespace.INode, error)
}, want map[string]entry) []string {
	nodes, err := db.ListSubtree(namespace.RootID)
	if err != nil {
		return []string{"ListSubtree(root): " + err.Error()}
	}
	paths := map[namespace.INodeID]string{namespace.RootID: "/"}
	got := make(map[string]entry, len(nodes))
	var bad []string
	for _, n := range nodes { // BFS order: parents precede children
		if n.ID == namespace.RootID {
			continue
		}
		parent, ok := paths[n.ParentID]
		if !ok {
			bad = append(bad, fmt.Sprintf("inode %d (%q) has no listed parent %d", n.ID, n.Name, n.ParentID))
			continue
		}
		p := "/" + n.Name
		if parent != "/" {
			p = parent + "/" + n.Name
		}
		paths[n.ID] = p
		got[p] = entry{id: n.ID, isDir: n.IsDir}
	}
	for p, w := range want {
		g, ok := got[p]
		switch {
		case !ok:
			bad = append(bad, "missing from store: "+p)
		case g != w:
			bad = append(bad, fmt.Sprintf("%s: store has id=%d dir=%v, model id=%d dir=%v", p, g.id, g.isDir, w.id, w.isDir))
		}
	}
	for p := range got {
		if _, ok := want[p]; !ok {
			bad = append(bad, "unexpected in store: "+p)
		}
	}
	sort.Strings(bad)
	return bad
}
