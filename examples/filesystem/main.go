// Filesystem example: the heterogeneous-service motif from the paper's
// §3.3 — a distributed file system whose metadata RPCs are latency-hinted
// and whose chunk I/O RPCs are throughput-hinted, in one service.
//
//	go run ./examples/filesystem
package main

import (
	"fmt"
	"sort"
	"strings"

	fsgen "hatrpc/examples/filesystem/gen"
	"hatrpc/internal/engine"
	"hatrpc/internal/sim"
	"hatrpc/internal/simnet"
	"hatrpc/internal/stats"
	"hatrpc/internal/trdma"
)

// memFS is a toy in-memory file store behind the HatFS service.
type memFS struct {
	node  *simnet.Node
	files map[string][]byte
	beats int
}

var _ fsgen.HatFSHandler = (*memFS)(nil)

func (f *memFS) Stat(p *sim.Proc, path string) (fsgen.FileInfo, error) {
	data, ok := f.files[path]
	if !ok {
		return fsgen.FileInfo{}, &fsgen.FSError{Message: "no such file: " + path}
	}
	f.node.CPU.Compute(p, 300) // inode lookup
	return fsgen.FileInfo{Path: path, Size: int64(len(data)), Mtime: 1_720_000_000, IsDir: false}, nil
}

func (f *memFS) ListDir(p *sim.Proc, path string) ([]string, error) {
	var out []string
	prefix := strings.TrimSuffix(path, "/") + "/"
	for name := range f.files {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	f.node.CPU.Compute(p, sim.Duration(200*len(f.files)))
	return out, nil
}

func (f *memFS) ReadChunk(p *sim.Proc, path string, offset int64, length int32) ([]byte, error) {
	data, ok := f.files[path]
	if !ok {
		return nil, &fsgen.FSError{Message: "no such file: " + path}
	}
	end := offset + int64(length)
	if end > int64(len(data)) {
		end = int64(len(data))
	}
	if offset >= end {
		return nil, nil
	}
	f.node.CPU.Compute(p, sim.Duration(end-offset)/8) // page-cache copy
	return data[offset:end], nil
}

func (f *memFS) WriteChunk(p *sim.Proc, path string, offset int64, data []byte) (int32, error) {
	buf := f.files[path]
	need := int(offset) + len(data)
	if len(buf) < need {
		grown := make([]byte, need)
		copy(grown, buf)
		buf = grown
	}
	copy(buf[offset:], data)
	f.files[path] = buf
	f.node.CPU.Compute(p, sim.Duration(len(data))/8)
	return int32(len(data)), nil
}

func (f *memFS) Heartbeat(p *sim.Proc, nodeId string) error {
	f.beats++
	return nil
}

func main() {
	env := sim.NewEnv(7)
	cluster := simnet.NewCluster(env, simnet.DefaultConfig())
	srvEng := engine.New(cluster.Node(0), engine.DefaultConfig())
	cliEng := engine.New(cluster.Node(1), engine.DefaultConfig())

	fsrv := &memFS{node: cluster.Node(0), files: map[string][]byte{}}
	trdma.NewServer(srvEng, fsgen.HatFSHints, fsgen.NewHatFSProcessor(fsrv))

	var metaLat, chunkLat stats.Sample
	env.Spawn("client", func(p *sim.Proc) {
		tr := trdma.Dial(p, cliEng, cluster.Node(0), fsgen.HatFSHints, nil)
		fs := fsgen.NewHatFSClient(tr)

		// Write a 1 MB file in 128 KB chunks (throughput-hinted path).
		chunk := make([]byte, 128<<10)
		for i := range chunk {
			chunk[i] = byte(i)
		}
		for off := int64(0); off < 1<<20; off += int64(len(chunk)) {
			start := p.Now()
			n, err := fs.WriteChunk(p, "/data/model.bin", off, chunk)
			check(err)
			chunkLat.Add(float64(p.Now() - start))
			if n != int32(len(chunk)) {
				panic("short write")
			}
		}

		// Metadata operations (latency-hinted path).
		for i := 0; i < 20; i++ {
			start := p.Now()
			info, err := fs.Stat(p, "/data/model.bin")
			check(err)
			metaLat.Add(float64(p.Now() - start))
			if info.Size != 1<<20 {
				panic("bad size")
			}
		}
		names, err := fs.ListDir(p, "/data")
		check(err)
		fmt.Printf("ListDir(/data) = %v\n", names)

		// Read the file back and verify.
		back, err := fs.ReadChunk(p, "/data/model.bin", 128<<10, 128<<10)
		check(err)
		for i := range back {
			if back[i] != byte(i) {
				panic("corrupt read")
			}
		}

		// Low-priority heartbeat rides the res_util path.
		check(fs.Heartbeat(p, "client-1"))
		p.Sleep(1_000_000)
		env.Stop()
	})
	env.Run()

	fmt.Printf("Stat (latency-hinted):        avg %s\n", stats.FormatNs(metaLat.Mean()))
	fmt.Printf("WriteChunk 128KB (throughput-hinted): avg %s (%.0f MB/s per stream)\n",
		stats.FormatNs(chunkLat.Mean()), float64(128<<10)/chunkLat.Mean()*1000)
	fmt.Printf("heartbeats delivered: %d\n", fsrv.beats)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
