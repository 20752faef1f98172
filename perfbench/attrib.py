"""Attribute a Go CPU profile's time to the repo's packages (layers).

A pprof profile is a gzipped protobuf (github.com/google/pprof,
proto/profile.proto). Only the fields the attribution needs are decoded:
sample types, samples, locations with their (possibly inlined) lines,
functions and the string table.

Each sample's CPU goes to the innermost frame of its stack that belongs
to a package under ``squeezy/internal/``, so map hashing, malloc and GC
assists are charged to the layer that called them. Samples with no such
frame (GC workers, the scheduler) go to ``runtime``.
"""

import gzip

REPO_PREFIX = "squeezy/internal/"
NO_REPO_FRAME = "runtime"


def _varint(buf, i):
    shift = n = 0
    while True:
        b = buf[i]
        i += 1
        n |= (b & 0x7F) << shift
        if b < 0x80:
            return n, i
        shift += 7


def _fields(buf):
    """Yield (field number, wire type, value) for one message. A varint
    value is an int; a length-delimited value is bytes."""
    i = 0
    while i < len(buf):
        key, i = _varint(buf, i)
        field, wire = key >> 3, key & 7
        if wire == 0:
            v, i = _varint(buf, i)
        elif wire == 2:
            n, i = _varint(buf, i)
            v, i = buf[i:i + n], i + n
        elif wire == 1:
            v, i = int.from_bytes(buf[i:i + 8], "little"), i + 8
        elif wire == 5:
            v, i = int.from_bytes(buf[i:i + 4], "little"), i + 4
        else:
            raise ValueError(f"unsupported protobuf wire type {wire}")
        yield field, wire, v


def _ints(wire, v):
    """A repeated integer field arrives packed (one length-delimited
    run of varints) or as one varint per element."""
    if wire == 0:
        return [v]
    out, i = [], 0
    while i < len(v):
        n, i = _varint(v, i)
        out.append(n)
    return out


def parse(data):
    """Decode a (gzipped) profile into (sample types, samples, stacks).

    sample types is a list of (type, unit) names; each sample is
    (location ids leaf-first, values); stacks maps a location id to its
    function names, innermost inlined frame first."""
    if data[:2] == b"\x1f\x8b":
        data = gzip.decompress(data)
    strings, types, samples = [], [], []
    locations, functions = {}, {}
    for field, wire, v in _fields(data):
        if field == 1:  # sample_type: ValueType{type, unit}
            vt = dict((f, x) for f, _, x in _fields(v))
            types.append((vt.get(1, 0), vt.get(2, 0)))
        elif field == 2:  # sample: {location_id, value}
            locs, vals = [], []
            for f, w, x in _fields(v):
                if f == 1:
                    locs += _ints(w, x)
                elif f == 2:
                    vals += _ints(w, x)
            samples.append((locs, vals))
        elif field == 4:  # location: {id, line{function_id}}
            lid, fids = 0, []
            for f, _, x in _fields(v):
                if f == 1:
                    lid = x
                elif f == 4:
                    fids.append(dict((g, y) for g, _, y in _fields(x)).get(1, 0))
            locations[lid] = fids
        elif field == 5:  # function: {id, name}
            fn = dict((f, x) for f, _, x in _fields(v))
            functions[fn.get(1, 0)] = fn.get(2, 0)
        elif field == 6:
            strings.append(v.decode("utf-8", "replace"))
    types = [(strings[t], strings[u]) for t, u in types]
    stacks = {lid: [strings[functions[f]] for f in fids if f in functions]
              for lid, fids in locations.items()}
    return types, samples, stacks


def layer_of(func_name):
    """The repo package a function name belongs to, or None."""
    if not func_name.startswith(REPO_PREFIX):
        return None
    rest = func_name[len(REPO_PREFIX):]
    return rest.split(".", 1)[0].split("/", 1)[0]


def attribute(data):
    """Return ({layer: cpu seconds}, total profiled cpu seconds)."""
    types, samples, stacks = parse(data)
    try:
        col = types.index(("cpu", "nanoseconds"))
    except ValueError:
        raise ValueError(f"not a CPU profile: sample types {types}") from None
    layers, total = {}, 0
    for locs, vals in samples:
        ns = vals[col]
        total += ns
        layer = NO_REPO_FRAME
        for lid in locs:
            hit = next((l for l in map(layer_of, stacks.get(lid, [])) if l), None)
            if hit:
                layer = hit
                break
        layers[layer] = layers.get(layer, 0) + ns
    return {k: v / 1e9 for k, v in layers.items()}, total / 1e9
