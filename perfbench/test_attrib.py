"""Tests for the profile-to-layer attribution.

Run from the repository root: python3 -m unittest discover -s perfbench
"""

import gzip
import os
import unittest

import attrib

HERE = os.path.dirname(os.path.abspath(__file__))


def _varint(n):
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


def _field(num, value):
    """Encode one field: an int as a varint, bytes as length-delimited."""
    if isinstance(value, int):
        return _varint(num << 3) + _varint(value)
    return _varint(num << 3 | 2) + _varint(len(value)) + value


def _msg(*fields):
    return b"".join(_field(n, v) for n, v in fields)


def _profile(strings, functions, locations, samples):
    """functions: {id: name}; locations: {id: [function ids, innermost
    first]}; samples: [(location ids leaf-first, [count, ns], packed)]."""
    idx = {s: i for i, s in enumerate(strings)}
    parts = [
        _field(1, _msg((1, idx["samples"]), (2, idx["count"]))),
        _field(1, _msg((1, idx["cpu"]), (2, idx["nanoseconds"]))),
    ]
    for locs, vals, packed in samples:
        if packed:
            body = _field(1, b"".join(map(_varint, locs))) + _field(2, b"".join(map(_varint, vals)))
        else:
            body = b"".join(_field(1, l) for l in locs) + b"".join(_field(2, v) for v in vals)
        parts.append(_field(2, body))
    for lid, fids in locations.items():
        parts.append(_field(4, _msg((1, lid), *[(4, _msg((1, f), (2, 7))) for f in fids])))
    for fid, name in functions.items():
        parts.append(_field(5, _msg((1, fid), (2, idx[name]))))
    parts += [_field(6, s.encode()) for s in strings]
    return gzip.compress(b"".join(parts))


class LayerOf(unittest.TestCase):
    def test_package_names(self):
        cases = {
            "squeezy/internal/buddy.(*Allocator).push": "buddy",
            "squeezy/internal/faas.newFuncVM.(*Driver).Plug.func2": "faas",
            "squeezy/internal/stats.New[go.shape.int]": "stats",
            "squeezy/internal/experiments.RunWithCellStats.func1": "experiments",
            "runtime.mallocgc": None,
            "main.run": None,
            "squeezy/perfbench.x": None,
        }
        for name, want in cases.items():
            self.assertEqual(attrib.layer_of(name), want, name)


class Attribute(unittest.TestCase):
    def test_synthetic_rules(self):
        strings = ["", "samples", "count", "cpu", "nanoseconds", "runtime.mallocgc",
                   "squeezy/internal/buddy.(*A).push", "squeezy/internal/mem.(*Zone).Free",
                   "runtime.gcBgMarkWorker"]
        functions = {1: "runtime.mallocgc", 2: "squeezy/internal/buddy.(*A).push",
                     3: "squeezy/internal/mem.(*Zone).Free", 4: "runtime.gcBgMarkWorker"}
        locations = {
            10: [1, 2],  # malloc inlined into buddy: charged to buddy
            11: [3],
            12: [4],
        }
        samples = [
            ([10, 11], [3, 30_000_000], True),   # innermost repo frame is buddy
            ([11], [2, 20_000_000], False),      # unpacked encoding
            ([12], [1, 10_000_000], True),       # no repo frame: runtime
            ([1000, 11], [1, 10_000_000], True), # unknown location is skipped
        ]
        layers, total = attrib.attribute(_profile(strings, functions, locations, samples))
        self.assertAlmostEqual(total, 0.07)
        self.assertEqual(layers, {"buddy": 0.03, "mem": 0.03, "runtime": 0.01})

    def test_rejects_non_cpu_profile(self):
        strings = ["", "samples", "count", "alloc", "bytes"]
        data = gzip.compress(_field(1, _msg((1, 3), (2, 4))) + b"".join(_field(6, s.encode()) for s in strings))
        with self.assertRaises(ValueError):
            attrib.attribute(data)

    def test_recorded_profile(self):
        # testdata/cpu.pprof: `squeezyctl -quick -parallel 2 -cpuprofile
        # run cluster-policies fig5 fig6`. The expected split was derived
        # independently from `go tool pprof -traces` on the same file.
        with open(os.path.join(HERE, "testdata", "cpu.pprof"), "rb") as f:
            layers, total = attrib.attribute(f.read())
        want = {"guestos": 0.52, "buddy": 0.38, "cluster": 0.02,
                "experiments": 0.01, "cpu": 0.01, "runtime": 0.01}
        self.assertEqual(set(layers), set(want))
        for k, v in want.items():
            self.assertAlmostEqual(layers[k], v, places=9, msg=k)
        self.assertAlmostEqual(total, 0.95, places=9)
        self.assertLessEqual(abs(sum(layers.values()) - total), 0.05 * total)


if __name__ == "__main__":
    unittest.main()
