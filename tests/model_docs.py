"""Corruptions of a format-2 model document (`params_to_json`) of a
compiled parity DFA. Each breaks one rule of the sparse weight encoding,
and the loader must refuse it before it allocates or writes the array.
`overlap_heads` edits a valid document into one that loads but that the
conversions must refuse."""

import math

HUGE = 10 ** 30  # beyond int64: numpy raises OverflowError


def first_with(doc, key):
    """The first layer whose `key` array has a nonzero code."""
    return next(layer for layer in doc["layers"] if layer[key]["codes"])


def truncate_rows(entry):
    """Drop the last row of a 2-d sparse entry, and the codes that sat in it."""
    entry["shape"][0] -= 1
    kept = [(i, c) for i, c in zip(entry["at"], entry["codes"]) if i < math.prod(entry["shape"])]
    entry["at"], entry["codes"] = [i for i, _ in kept], [c for _, c in kept]


def set_rows(layer, rows):
    """Give a layer's MLP `rows` rows: w1, bias4 and w2 shapes that agree,
    with w2's codes kept at their (row, column) places."""
    m = layer["bias4"]["shape"][0]
    layer["w1"]["shape"][0] = layer["bias4"]["shape"][0] = layer["w2"]["shape"][1] = rows
    w2 = layer["w2"]  # (d, m): a flat index moves with the row length
    w2["at"] = [i // m * rows + i % m for i in w2["at"]]


def _huge_dims(doc):
    """d_ff = 10^10 and a layer of that many MLP rows: every shape agrees
    with dims, but the file would ask for a 10^11-entry w1."""
    doc["dims"]["d_ff"] = 10 ** 10
    set_rows(first_with(doc, "w1"), 10 ** 10)


def _dense_emb(doc):
    n, d = doc["emb"]["shape"]
    doc["emb"] = [[0] * d for _ in range(n)]


def _set(key, index, value):
    """Set emb[key][index] to value, or to value(emb) if it is a function."""

    def corrupt(doc):
        entry = doc["emb"]
        entry[key][index] = value(entry) if callable(value) else value

    return corrupt


def _swap_first_indices(doc):
    at = doc["emb"]["at"]
    at[0], at[1] = at[1], at[0]


def _code_beyond_int32(doc):
    first_with(doc, "bias4")["bias4"]["codes"][0] = 2 ** 32 + 1  # int32 would wrap it to 1


CORRUPTIONS = {
    "missing-format": lambda doc: doc.pop("format"),
    "format-1": lambda doc: doc.update(format=1),
    "fractional-format": lambda doc: doc.update(format=2.0),
    "dense-emb": _dense_emb,
    "wrong-rank": lambda doc: doc["emb"]["shape"].append(1),
    "fractional-shape": _set("shape", 0, lambda e: float(e["shape"][0])),
    "shape-beyond-d": _set("shape", 1, lambda e: e["shape"][1] + 1),
    "rows-beyond-d_ff": lambda doc: set_rows(first_with(doc, "w1"), 10 ** 10),
    "huge-dims": _huge_dims,
    "negative-index": _set("at", 0, -1),
    "index-past-end": _set("at", -1, lambda e: math.prod(e["shape"])),
    "huge-index": _set("at", -1, HUGE),
    "fractional-index": _set("at", 0, lambda e: float(e["at"][0])),
    "boolean-index": _set("at", 0, True),
    "repeated-index": _set("at", 1, lambda e: e["at"][0]),
    "unsorted-indices": _swap_first_indices,
    "more-codes-than-indices": lambda doc: doc["emb"]["codes"].append(1),
    "one-code-for-all-indices": lambda doc: doc["emb"].update(codes=doc["emb"]["codes"][:1]),
    "zero-code": _set("codes", 0, 0),
    "code-beyond-int8": _set("codes", 0, 257),  # int8 would wrap it to 1
    "code-beyond-int32": _code_beyond_int32,
    "huge-code": _set("codes", 0, HUGE),
}


def overlap_heads(doc):
    """Give head 1 of the first layer with two heads the sparse wo of head
    0, so both write the same coordinates; returns that layer's index."""
    li = next(i for i, layer in enumerate(doc["layers"]) if len(layer["heads"]) > 1)
    heads = doc["layers"][li]["heads"]
    heads[1]["wo"] = dict(heads[0]["wo"])
    return li
