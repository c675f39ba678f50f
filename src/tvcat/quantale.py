"""Commutative unital quantales on finite carriers, and relations valued in them.

A quantale here is a finite complete lattice with a commutative monoid
structure that distributes over joins.  All operations are exact table
lookups over a canonical element order; no floating point anywhere.
The internal hom is always recomputed from the tensor by scanning, never
trusted from input (an input hom table is validated against the scan).
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from .core import FinSet, Fn, InputError, ValidationError
from .report import LawReport

BUILTIN_NAMES = ("boolean", "truncated_chain", "lukasiewicz_chain", "powerset_frame")

# Relations store one byte per value (see `VRelation`), so a carrier may
# have at most this many elements.
MAX_ELEMENTS = 256

# Composites with at least this many cells are computed by `mask_rows`
# (see `compose_rows`).
MASK_CELLS = 128

# `mask_rows` ANDs the masks of this many consecutive positions at a time.
BLOCK = 8


def _closure(n: int, leq: list[list[bool]]) -> None:
    """Reflexive-transitive closure, in place."""
    for i in range(n):
        leq[i][i] = True
    for k in range(n):
        rk = leq[k]
        for i in range(n):
            if leq[i][k]:
                ri = leq[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True


class Quantale:
    """Finite commutative unital quantale with precomputed operation tables.

    Elements are addressed by index into `elements`; the string names only
    matter at the I/O boundary.  Constructed only through `build_quantale`
    (the builtin helpers call it), which validates every law first and
    hands back one object per spec.  `spec` is that spec, the document the
    quantale prints as: `{"builtin": name}`, plus `n` for the families
    that take one, or the explicit tables.

    Down-set codes.  Value v is coded by the set of values u other than
    bottom with u <= v, one bit per entry of `fields`, in w = max(1,
    ceil(len(fields) / 8)) bytes per cell: byte k of v's code, most
    significant first, is `down_codes[k][v]`.  u <= v exactly when u's set
    lies inside v's, and the set of a meet is the intersection of the
    sets.  So once a line of values is one int (`line_code`), an entrywise
    order test of two lines is `A & ~B == 0` and their entrywise meet is
    `A & B`, which `down_values` decodes back into values when w == 1 (it
    is None otherwise).

    Value masks, for the cut masks of the presheaf enumerator only.  A
    line of m values is summarised by one int with one field of m bits per
    value other than bottom: bits k*m .. k*m+m-1 belong to `fields[k]`,
    and bit k*m+j is set when entry j of the line is that value
    (`line_masks` read through `eq_codes`).

    `mask_rows` reads translate tables indexed by value: `above[v]`
    (`below[v]`) reads u as b"1" when v <= u (u <= v), `tensor_codes[v]`
    maps u to v (x) u and `hom_codes[c]` maps u to hom(u, c).  `rising`
    and `falling` list the values other than top (bottom) in a linear
    extension of the order, least (greatest) first.

    `pair_rows` takes meets only.  When w > 1 it reads `meet_codes[v]`,
    which maps u to the meet of v and u, and `lane_codes[v]`, which maps v
    to 0xff and every other value to 0.  `unit_up` maps u to 1 when unit
    <= u and to 0 otherwise.
    """

    __slots__ = ("spec", "elements", "n", "leq_m", "tensor_m", "unit", "bottom",
                 "top", "join_m", "meet_m", "hom_m", "_vset", "fields",
                 "eq_codes", "down_codes", "down_values", "above", "below",
                 "tensor_codes", "meet_codes", "hom_codes", "lane_codes",
                 "unit_up", "rising", "falling")

    def __init__(self, spec, elements, leq_m, tensor_m, unit, join_m, meet_m,
                 hom_m, bottom, top):
        self.spec = spec
        self.elements = tuple(elements)
        self.n = len(self.elements)
        self.leq_m = leq_m
        self.tensor_m = tensor_m
        self.unit = unit
        self.join_m = join_m
        self.meet_m = meet_m
        self.hom_m = hom_m
        self.bottom = bottom
        self.top = top
        self._vset = FinSet(self.elements)
        n = self.n
        values = range(n)

        def table(images):
            # bytes past n never occur in a line and map to themselves
            return bytes.maketrans(bytes(values), bytes(images))

        self.above = tuple(table(49 if leq_m[v][w] else 48 for w in values)
                           for v in values)
        self.below = tuple(table(49 if leq_m[w][v] else 48 for w in values)
                           for v in values)
        self.tensor_codes = tuple(map(table, tensor_m))
        self.meet_codes = tuple(map(table, meet_m))
        self.lane_codes = tuple(table(255 if w == v else 0 for w in values)
                                for v in values)
        self.hom_codes = tuple(table(hom_m[w][c] for w in values)
                               for c in values)
        self.unit_up = table(leq_m[unit][w] for w in values)
        rising = sorted(values, key=lambda v: sum(r[v] for r in leq_m))
        self.rising = tuple(v for v in rising if v != top)
        self.falling = tuple(v for v in reversed(rising) if v != bottom)
        self.fields = fields = tuple(v for v in values if v != bottom)
        # the last field comes first in the numeral, so that field k starts
        # at bit k*m
        self.eq_codes = tuple(table(49 if w == v else 48 for w in values)
                              for v in reversed(fields))
        width = max(1, -(-len(fields) // 8))
        down = [sum(1 << k for k, u in enumerate(fields) if leq_m[u][v])
                for v in values]
        self.down_codes = tuple(table(c >> 8 * k & 255 for c in down)
                                for k in reversed(range(width)))
        self.down_values = None
        if width == 1:
            decode = bytearray(256)
            for v, c in enumerate(down):
                decode[c] = v
            self.down_values = bytes(decode)

    # -- index-level operations ------------------------------------------

    def join_all(self, items: Iterable[int]) -> int:
        acc = self.bottom
        jm, top = self.join_m, self.top
        for v in items:
            acc = jm[acc][v]
            if acc == top:
                return top
        return acc

    # -- name-level conveniences ------------------------------------------

    def index_of(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise InputError("unknown quantale element %r (have %r)"
                             % (name, self.elements))

    def carrier(self) -> FinSet:
        return self._vset

    def __repr__(self) -> str:
        return "Quantale(%s; unit=%s)" % (",".join(self.elements),
                                          self.elements[self.unit])


def line_masks(line: bytes, codes) -> int:
    """Packed value masks of a line given last entry first (see `Quantale`).

    `codes` is `q.eq_codes`, possibly behind one more table for bottom's
    field: the cut masks of `presheaf._enumerate_value_tuples` are its one
    caller.
    """
    return int(b"".join(map(line.translate, codes)), 2) if line else 0


def line_code(q: Quantale, line: bytes) -> int:
    """The down-set codes of a line of values as one int (see `Quantale`).

    Cell j takes the w bytes from j*w on, so two lines of equal length
    compare and meet cell by cell with one int operation.
    """
    codes = q.down_codes
    if len(codes) == 1:
        return int.from_bytes(line.translate(codes[0]), "big")
    width = len(codes)
    buf = bytearray(len(line) * width)
    for k, code in enumerate(codes):
        buf[k::width] = line.translate(code)
    return int.from_bytes(buf, "big")


def mask_rows(lines, codes, order, columns, tests, rest: int,
              width: int) -> list:
    """Byte rows of a matrix whose entries are read off value masks.

    `lines[i]` and `columns` run over the same positions p: lines[i] is a
    byte line of values and columns[p] a byte line of `width` values, one
    per output column j.  Entry (i, j) is the first v of `order` such that,
    at every p, tests[w] reads columns[p][j] as b"1" for w = codes[v] of
    lines[i][p]; it is `rest` when no v passes.  `codes` and `tests` are
    `bytes.translate` tables indexed by value.  Each columns[p] becomes
    one int mask per value, and the masks of each block of BLOCK positions
    are ANDed once per distinct coded block: the AND depends on nothing
    but the coded bytes w, so the block's coded bytes key one memo that
    every line and every value tried share (the "Four Russians" method).
    A line then costs one lookup and one AND per block per value tried,
    however wide the rows are; a value is not tried on columns an earlier
    one already took.  With one value to try (every boolean call) a row is
    spelled from its numeral directly, '0' as `rest` and '1' as that value.
    """
    if not width:
        return [b""] * len(lines)
    masks = [[int(col.translate(t), 2) for t in tests] for col in columns]
    full = (1 << width) - 1
    fmt = "0%db" % width
    blocks = [(slice(p, p + BLOCK), masks[p:p + BLOCK], {})
              for p in range(0, len(masks), BLOCK)]

    def passing(coded, left):
        """The columns among `left` that pass at every block of coded."""
        for cut, part, memo in blocks:
            key = coded[cut]
            hit = memo.get(key)
            if hit is None:
                hit = full
                for m, w in zip(part, key):
                    hit &= m[w]
                memo[key] = hit
            left &= hit
            if not left:
                break
        return left

    if len(order) == 1:
        v, = order
        code = codes[v]
        spell = bytes.maketrans(b"01", bytes((rest, v)))
        return [format(passing(line.translate(code), full), fmt).encode()
                .translate(spell) for line in lines]
    # a row starts as `rest` everywhere; v's mark turns the numeral of the
    # columns v takes into bytes v ^ rest there and 0 elsewhere, to XOR in
    rests = int.from_bytes(bytes((rest,)) * width, "big")
    tried = [(codes[v], bytes.maketrans(b"01", bytes((0, v ^ rest))))
             for v in order]
    out = []
    for line in lines:
        left, acc = full, rests
        for code, mark in tried:
            taken = passing(line.translate(code), left)
            if taken:
                left &= ~taken
                acc ^= int.from_bytes(
                    format(taken, fmt).encode().translate(mark), "big")
                if not left:
                    break
        out.append(acc.to_bytes(width, "big"))
    return out


def compose_rows(q: Quantale, r_rows, s_rows, width: int) -> list:
    """Byte rows of the composite s after r, given the rows of r and of s.

    Row x, entry z is V_y r(x, y) (x) s(y, z): r_rows[x] runs over the
    middle positions y, and s_rows[y] is a byte line of `width` values.
    By residuation that entry is <= c exactly when s(y, z) <= hom(r(x, y),
    c) for every y, so it is the least c that passes.  A composite of at
    least MASK_CELLS cells comes from `mask_rows`, which tests each c
    against the rows of s for a whole row at once; a smaller one is the
    join over y cell by cell, which costs less there (measured crossover).
    Every composition of relations comes here, through
    `VRelation.__matmul__` or with rows laid side by side (one row block
    of s for many relations, or many relations' rows stacked as r).
    """
    if len(r_rows) * width >= MASK_CELLS:
        return mask_rows(r_rows, q.hom_codes, q.rising, s_rows, q.below,
                         q.top, width)
    tm, jm, bot, top = q.tensor_m, q.join_m, q.bottom, q.top
    scols = list(zip(*s_rows)) if s_rows else [()] * width
    out = []
    for ri in r_rows:
        live = [(j, v) for j, v in enumerate(ri) if v != bot]
        row = []
        for sk in scols:
            acc = bot
            for j, v in live:
                acc = jm[acc][tm[v][sk[j]]]
                if acc == top:
                    break
            row.append(acc)
        out.append(bytes(row))
    return out


def _gathered(table, idx) -> dict:
    """{r: bytes(table[r][i] for i in idx)} for each r in idx, by bytes ops.

    `table` is square and idx indexes its rows and columns.  The rows of
    the distinct r are joined, column i is a stride of that block, and the
    columns joined in idx order hold the wanted lines as strides again.
    """
    keep = list(dict.fromkeys(idx))
    width = len(table[keep[0]])
    block = b"".join(map(table.__getitem__, keep))
    cols = {i: block[i::width] for i in keep}
    flat = b"".join(map(cols.__getitem__, idx))
    return {r: flat[k::len(keep)] for k, r in enumerate(keep)}


def pair_rows(q: Quantale, a, b, pairs) -> list:
    """Byte rows of the table of meets a[i'][i] ^ b[j'][j] over pairs x pairs.

    Row (i', j') and column (i, j) run over `pairs` in order; a and b are
    square tables of byte rows, the structures a comma object meets.  Row
    i' of a is gathered along the pairs' first indices once, and row j' of
    b along their second indices once.  When down-set codes fit one byte,
    an output row is the AND of the two gathered lines' codes, decoded by
    `q.down_values`.  Otherwise it is, over the values v of the gathered
    a-row, the gathered b-row translated by `q.meet_codes[v]` on the byte
    lanes where the a-row holds v (`q.lane_codes`), split once per run of
    pairs that share i'.  No cell costs a Python step.
    """
    if not pairs:
        return []
    firsts, seconds = zip(*pairs)
    alines, blines = _gathered(a, firsts), _gathered(b, seconds)
    size = len(pairs)
    if q.down_values is not None:
        back = q.down_values
        bcodes = {j2: line_code(q, line) for j2, line in blines.items()}
        out = []
        last = None
        for i2, j2 in pairs:
            if i2 != last:
                last = i2
                acode = line_code(q, alines[i2])
            out.append((acode & bcodes[j2]).to_bytes(size, "big")
                       .translate(back))
        return out
    lane_codes, codes = q.lane_codes, q.meet_codes
    pieces = {}
    out = []
    last = None
    for i2, j2 in pairs:
        if i2 != last:
            last = i2
            split = []
            line = rest = alines[i2]
            # each value once: take the first left, then delete it
            while rest:
                v = rest[0]
                lane = line.translate(lane_codes[v])
                split.append((v, int.from_bytes(lane, "big")))
                rest = rest.translate(None, bytes((v,)))
        acc = 0
        for v, lane in split:
            piece = pieces.get((v, j2))
            if piece is None:
                piece = pieces[v, j2] = int.from_bytes(
                    blines[j2].translate(codes[v]), "big")
            acc |= piece & lane
        out.append(acc.to_bytes(size, "big"))
    return out


# ---------------------------------------------------------------------------
# raw table validation
# ---------------------------------------------------------------------------

def least_upper_bound(leq, members):
    """A least c with m <= c for every m in members, or None; leq[a][b]
    says a <= b in a preorder."""
    ups = [c for c in range(len(leq)) if all(leq[m][c] for m in members)]
    return next((c for c in ups if all(leq[c][d] for d in ups)), None)


def _scan_laws(elements: Sequence[str], leq_pairs, tensor: dict, unit: int,
               rep: LawReport, hom_given=None) -> dict | None:
    """Run every quantale law over raw tables, recording one check per law.

    Returns the derived tables when the scan ends in a usable state, else
    None.  Later laws that need earlier structure are skipped when it is
    missing rather than reported as spurious failures.
    """
    n = len(elements)
    leq = [[False] * n for _ in range(n)]
    for (a, b) in leq_pairs:
        leq[a][b] = True
    _closure(n, leq)

    anti = next(((a, b) for a in range(n) for b in range(a + 1, n)
                 if leq[a][b] and leq[b][a]), None)
    rep.add("order-antisymmetry", anti is None,
            "closure of the order table is a partial order" if anti is None
            else "witness: %s <= %s <= %s" % (elements[anti[0]], elements[anti[1]],
                                              elements[anti[0]]))
    if anti is not None:
        return None

    geq = [list(col) for col in zip(*leq)]   # meets are joins in geq
    # a finite order is complete exactly when it has both bounds and every
    # binary join and meet; a failure names the first such set that a scan
    # of all subsets by bitmask meets: the empty set, then {a, b} by b, a
    bottom, top = least_upper_bound(leq, []), least_upper_bound(geq, [])
    join_m = tuple(tuple(least_upper_bound(leq, [a, b]) for b in range(n))
                   for a in range(n))
    meet_m = tuple(tuple(least_upper_bound(geq, [a, b]) for b in range(n))
                   for a in range(n))
    bad = [] if bottom is None or top is None else next(
        ([a, b] for b in range(n) for a in range(b)
         if join_m[a][b] is None or meet_m[a][b] is None), None)
    rep.add("lattice-completeness", bad is None,
            "both bounds and all %d binary joins and meets exist" % (n * n)
            if bad is None
            else "no join/meet for {%s}" % ",".join(elements[i] for i in bad))
    if bad is not None:
        return None

    missing = [(a, b) for a in range(n) for b in range(n) if (a, b) not in tensor]
    if missing:
        a, b = missing[0]
        rep.add("tensor-total", False,
                "missing tensor entry for (%s,%s)" % (elements[a], elements[b]))
        return None
    rep.add("tensor-total", True, "all %d entries present" % (n * n))
    tm = tuple(tuple(tensor[(a, b)] for b in range(n)) for a in range(n))

    w = next(((a, b) for a in range(n) for b in range(n)
              if tm[a][b] != tm[b][a]), None)
    rep.add("tensor-commutative", w is None,
            "checked for all %d pairs" % (n * n) if w is None
            else "witness: %s,%s" % (elements[w[0]], elements[w[1]]))

    w3 = next(((a, b, c) for a in range(n) for b in range(n) for c in range(n)
               if tm[tm[a][b]][c] != tm[a][tm[b][c]]), None)
    rep.add("tensor-associative", w3 is None,
            "checked for all %d triples" % (n ** 3) if w3 is None
            else "witness: %s,%s,%s" % tuple(elements[i] for i in w3))

    w = next((a for a in range(n) if tm[a][unit] != a or tm[unit][a] != a), None)
    rep.add("tensor-unit", w is None,
            "unit is %s" % elements[unit] if w is None
            else "witness: %s (*) unit = %s" % (elements[w], elements[tm[w][unit]]))

    rep.add("unit-not-bottom", unit != bottom,
            "" if unit != bottom else "the unit equals the bottom element")

    w3 = next(((a, b, c) for a in range(n) for b in range(n) for c in range(n)
               if tm[a][join_m[b][c]] != join_m[tm[a][b]][tm[a][c]]), None)
    wb = next((a for a in range(n) if tm[a][bottom] != bottom), None)
    ok = w3 is None and wb is None
    rep.add("tensor-join-distributive", ok,
            "checked for all %d triples and the empty join" % (n ** 3) if ok
            else ("witness: %s,(%s v %s)" % tuple(elements[i] for i in w3)
                  if w3 is not None
                  else "witness: %s (*) bottom /= bottom" % elements[wb]))

    # internal hom by scanning; the adjunction then holds by construction on
    # one side, the other side needs distributivity and is still checked
    hom_m = tuple(tuple(least_upper_bound(leq, [b for b in range(n)
                                                if leq[tm[a][b]][c]])
                        for c in range(n))
                  for a in range(n))

    w3 = next(((a, b, c) for a in range(n) for b in range(n) for c in range(n)
               if leq[tm[a][b]][c] != leq[b][hom_m[a][c]]), None)
    rep.add("hom-adjunction", w3 is None,
            "checked for all %d triples" % (n ** 3) if w3 is None
            else "witness: %s,%s,%s" % tuple(elements[i] for i in w3))

    if hom_given is not None:
        w = next(((a, c) for a in range(n) for c in range(n)
                  if hom_given.get((a, c)) != hom_m[a][c]), None)
        rep.add("hom-table-matches", w is None,
                "input hom table agrees with the recomputed one" if w is None
                else "witness: hom(%s,%s)" % (elements[w[0]], elements[w[1]]))

    if not rep.ok:
        return None
    leq_t = tuple(tuple(row) for row in leq)
    return {"leq": leq_t, "tensor": tm, "unit": unit, "join": join_m,
            "meet": meet_m, "hom": hom_m, "bottom": bottom, "top": top}


def _raw_from_spec(spec: dict):
    """Parse a normal quantale spec into raw index tables."""
    if "builtin" in spec:
        spec = _builtin_spec(spec["builtin"], spec.get("n"))
    for field in ("elements", "leq", "tensor", "unit"):
        if field not in spec:
            raise InputError("quantale description missing %r" % field)
    elements = tuple(spec["elements"])
    if len(elements) > MAX_ELEMENTS:
        raise InputError("quantale has %d elements; at most %d are supported"
                         % (len(elements), MAX_ELEMENTS))
    if len(set(elements)) != len(elements):
        raise InputError("duplicate quantale element names")
    ix = {e: i for i, e in enumerate(elements)}

    def need(name):
        if name not in ix:
            raise InputError("unknown quantale element %r" % name)
        return ix[name]

    leq_pairs = [(need(a), need(b)) for a, b in spec["leq"]]
    tensor = {}
    for key, val in spec["tensor"].items():
        parts = key.split("|")
        if len(parts) != 2:
            raise InputError("bad tensor key %r, expected 'a|b'" % key)
        tensor[(need(parts[0]), need(parts[1]))] = need(val)
    unit = need(spec["unit"])
    hom_given = None
    if "hom" in spec:
        hom_given = {}
        for key, val in spec["hom"].items():
            parts = key.split("|")
            if len(parts) != 2:
                raise InputError("bad hom key %r, expected 'a|b'" % key)
            hom_given[(need(parts[0]), need(parts[1]))] = need(val)
    return elements, leq_pairs, tensor, unit, hom_given


def _builtin_spec(name: str, n: int | None) -> dict:
    if name == "boolean":
        return {"elements": ["0", "1"], "leq": [["0", "1"]],
                "tensor": {"0|0": "0", "0|1": "0", "1|0": "0", "1|1": "1"},
                "unit": "1"}
    if name == "truncated_chain":
        if n < 0:
            raise InputError("truncated_chain needs n >= 0")
        # numeric values 0..n plus inf; the quantale order is numeric >=,
        # so 0 is the top and the unit, inf is the bottom
        names = [str(i) for i in range(n + 1)] + ["inf"]
        INF = n + 1  # numeric stand-in for inf
        num = {name_: i for i, name_ in enumerate(names)}
        leq = [[a, b] for a in names for b in names if num[a] >= num[b]]
        tensor = {}
        for a in names:
            for b in names:
                s = num[a] + num[b]
                tensor["%s|%s" % (a, b)] = names[min(s, INF)] if s <= n else "inf"
        return {"elements": names, "leq": leq, "tensor": tensor, "unit": "0"}
    if name == "lukasiewicz_chain":
        if n < 1:
            raise InputError("lukasiewicz_chain needs n >= 1")
        names = [str(i) for i in range(n + 1)]
        leq = [[str(a), str(b)] for a in range(n + 1) for b in range(n + 1) if a <= b]
        tensor = {"%d|%d" % (a, b): str(max(a + b - n, 0))
                  for a in range(n + 1) for b in range(n + 1)}
        return {"elements": names, "leq": leq, "tensor": tensor, "unit": str(n)}
    if name == "powerset_frame":
        if n < 0:
            raise InputError("powerset_frame needs n >= 0")
        def label(mask):
            return "{%s}" % ",".join(str(i + 1) for i in range(n) if mask >> i & 1)
        masks = list(range(1 << n))
        names = [label(m) for m in masks]
        leq = [[label(a), label(b)] for a in masks for b in masks if a & b == a]
        tensor = {"%s|%s" % (label(a), label(b)): label(a & b)
                  for a in masks for b in masks}
        return {"elements": names, "leq": leq, "tensor": tensor,
                "unit": label((1 << n) - 1)}
    raise InputError("unknown builtin quantale %r (have %s)"
                     % (name, ", ".join(BUILTIN_NAMES)))


def _normal_spec(spec: dict) -> dict:
    """The one spec of a quantale description: a builtin becomes its name,
    plus n for the families that take one, whatever else the description
    holds; explicit tables are kept as they are."""
    if "builtin" not in spec:
        return spec
    family = spec["builtin"]
    if not isinstance(family, str):
        raise InputError("builtin must be a quantale name, got %r" % family)
    if family not in BUILTIN_NAMES or family == "boolean":
        return {"builtin": family}
    n = spec.get("n")
    # an n of True would key a second object for the quantale of 1, and
    # 2.0, None or "2" would fail inside the table builder
    if type(n) is not int:
        raise InputError("%s needs an integer n, got %r" % (family, n))
    return {"builtin": family, "n": n}


def check_quantale_laws(spec) -> LawReport:
    """Validate every quantale law for a description in the dict format of
    `build_quantale`."""
    rep = LawReport("quantale laws")
    try:
        elements, leq_pairs, tensor, unit, hom_given = \
            _raw_from_spec(_normal_spec(spec))
        _scan_laws(elements, leq_pairs, tensor, unit, rep, hom_given)
    except InputError as exc:
        rep.add("well-formed", False, str(exc))
    return rep


# Every quantale built in this process, by the JSON text of its normal
# spec.  The paper fixes one V, and relations compose only over the same
# quantale object, so equal specs must give one object however they were
# written down; engine caches keyed by the object then survive a rebuilt
# corpus.
_QUANTALES: dict = {}


def build_quantale(spec: dict) -> Quantale:
    """The validated quantale of a description dict, one object per spec.

    Either {"builtin": name, "n": int} or an explicit table
    {"elements": [...], "leq": [[a,b],...], "tensor": {"a|b": c,...},
    "unit": k}.  Unlisted leq pairs are closed reflexively/transitively;
    missing tensor entries are an error.  A builtin's spec is normalised
    to its name and integer n; descriptions with equal normal specs get
    the same object, whose `spec` is a private copy of that spec.
    """
    key = json.dumps(_normal_spec(spec), sort_keys=True)
    q = _QUANTALES.get(key)
    if q is None:
        spec = json.loads(key)
        elements, leq_pairs, tensor, unit, hom_given = _raw_from_spec(spec)
        rep = LawReport()
        tables = _scan_laws(elements, leq_pairs, tensor, unit, rep, hom_given)
        if tables is None:
            first = rep.failures[0]
            raise ValidationError("not a quantale: %s (%s)"
                                  % (first.name, first.detail))
        q = _QUANTALES[key] = Quantale(
            spec, elements, tables["leq"], tables["tensor"], tables["unit"],
            tables["join"], tables["meet"], tables["hom"], tables["bottom"],
            tables["top"])
    return q


def boolean_quantale() -> Quantale:
    return build_quantale({"builtin": "boolean"})


def truncated_chain(n: int) -> Quantale:
    return build_quantale({"builtin": "truncated_chain", "n": n})


def lukasiewicz_chain(n: int) -> Quantale:
    return build_quantale({"builtin": "lukasiewicz_chain", "n": n})


def powerset_frame(n: int) -> Quantale:
    return build_quantale({"builtin": "powerset_frame", "n": n})


# ---------------------------------------------------------------------------
# V-valued relations
# ---------------------------------------------------------------------------

class VRelation:
    """A quantale-valued relation between two finite sets.

    Stored densely, one byte per cell: rows[i] is a `bytes` line and
    rows[i][j] the index of the value at (src[i], dst[j]); quantales have at
    most MAX_ELEMENTS = 256 values, so every index fits.  The constructor
    takes any iterables of ints and stores `tuple(map(bytes, rows))`, so a
    row that is already `bytes` is kept as it is, not copied.  Relations
    between value-equal carriers compose even when the FinSet objects
    differ; the quantale must be the same object.

    A relation keeps nothing derived from its rows.  Code that needs a
    line's down-set codes (`line_code`) or a column computes them where it
    reads them, from the rows or their joined copy (see
    `category.is_separated`).
    """

    __slots__ = ("q", "src", "dst", "rows")

    def __init__(self, q: Quantale, src: FinSet, dst: FinSet, rows):
        self.q = q
        self.src = src
        self.dst = dst
        self.rows = tuple(map(bytes, rows))
        if len(self.rows) != src.size \
                or not all(map(dst.size.__eq__, map(len, self.rows))):
            raise InputError("relation shape %dx%d does not match carriers %dx%d"
                             % (len(self.rows),
                                len(self.rows[0]) if self.rows else 0,
                                len(src), len(dst)))

    @classmethod
    def from_fn(cls, q: Quantale, f: Fn) -> "VRelation":
        """The graph of a map: unit on the graph, bottom elsewhere."""
        k, bot = q.unit, q.bottom
        return cls(q, f.src, f.dst,
                   (bytes(k if t == j else bot for j in range(len(f.dst)))
                    for t in f.table))

    @classmethod
    def identity(cls, q: Quantale, X: FinSet) -> "VRelation":
        return cls.from_fn(q, Fn.identity(X))

    @property
    def T(self) -> "VRelation":
        return VRelation(self.q, self.dst, self.src, zip(*self.rows)) \
            if self.rows else VRelation(self.q, self.dst, self.src,
                                        (b"",) * len(self.dst))

    def _check_parallel(self, other: "VRelation"):
        if self.q is not other.q:
            raise InputError("relations live over different quantale objects")
        if (self.src is not other.src and self.src != other.src) \
                or (self.dst is not other.dst and self.dst != other.dst):
            raise InputError("relations are not parallel")

    def __matmul__(self, other: "VRelation") -> "VRelation":
        """self (*) other = 'self after other': (s @ r)(x,z) = V_y r(x,y) ⊗ s(y,z).

        The carriers are checked here and the rows come from `compose_rows`.
        """
        r, s = other, self
        if r.q is not s.q:
            raise InputError("relations live over different quantale objects")
        if r.dst is not s.src and r.dst != s.src:
            raise InputError("cannot compose: middle carriers %r and %r differ"
                             % (r.dst.elements, s.src.elements))
        return VRelation(r.q, r.src, s.dst,
                         compose_rows(r.q, r.rows, s.rows, len(s.dst)))

    def leq(self, other: "VRelation") -> bool:
        """Entrywise order, decided on all rows at once.

        Equal rows answer by reflexivity; otherwise the down-set codes of
        self's joined rows must lie inside those of other's (see
        `Quantale`).
        """
        self._check_parallel(other)
        mine, theirs = b"".join(self.rows), b"".join(other.rows)
        q = self.q
        return mine == theirs or not (line_code(q, mine)
                                      & ~line_code(q, theirs))

    def __le__(self, other: "VRelation") -> bool:
        return self.leq(other)

    def first_violation(self, other: "VRelation"):
        """First (x,y) where self(x,y) is not below other(x,y), or None.

        `leq` decides first; only a relation that fails it is scanned cell
        by cell for the witness.
        """
        if self.leq(other):
            return None
        lm = self.q.leq_m
        for i in range(len(self.src)):
            for j in range(len(self.dst)):
                if not lm[self.rows[i][j]][other.rows[i][j]]:
                    return (self.src.elements[i], self.dst.elements[j])
        return None

    def __eq__(self, other) -> bool:
        # rows first: carriers equal in size compare by their labels
        return (isinstance(other, VRelation) and self.q is other.q
                and self.rows == other.rows
                and self.src == other.src and self.dst == other.dst)

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        cells = ["%s,%s:%s" % (x, y, self.q.elements[self.rows[i][j]])
                 for i, x in enumerate(self.src)
                 for j, y in enumerate(self.dst)]
        return "VRelation(%s)" % "; ".join(cells)


def residual_left(t: VRelation, r: VRelation) -> VRelation:
    """Largest s with s @ r <= t.

    Shapes: r: X -/-> Y, t: X -/-> Z, result: Y -/-> Z.  Pointwise this is
    (y,z) |-> meet over x of hom(r(x,y), t(x,z)); the law suite checks it
    against a brute-force largest-solution search.
    """
    if r.q is not t.q:
        raise InputError("relations live over different quantale objects")
    if r.src != t.src:
        raise InputError("left residual needs r and t with the same source")
    q = r.q
    meet, top, bottom = q.meet_m, q.top, q.bottom
    # columns by zip: on the small shapes of the class tests, building two
    # transposed relations costs more than the meets
    rcols = list(zip(*r.rows)) if r.rows else [()] * len(r.dst)
    tcols = list(zip(*t.rows)) if t.rows else [()] * len(t.dst)
    rows = []
    for rcol in rcols:
        homs = [q.hom_m[v] for v in rcol]
        row = []
        for tcol in tcols:
            acc = top
            for hom, c in zip(homs, tcol):
                acc = meet[acc][hom[c]]
                if acc == bottom:
                    break
            row.append(acc)
        rows.append(row)
    return VRelation(q, r.dst, t.dst, rows)
