"""Exact output checks for one item.

Each check returns ``(field, expected, actual)`` triples; an item passes when
every triple agrees exactly.  Two independent references exist:

* :func:`oracle_pairs` rebuilds the expected output from the benchmark's own
  geometry (:mod:`geometry`), never from qbary;
* :func:`translation_pairs` predicts a translated item's output from its
  round-0 twin: E, ``hrr``, thresholds and a_j for j >= 1 are unchanged,
  a_0 and Bc_k shift by t, and c'_j shifts by <t, v> E_{j-1}.

Ray indices (``argmin_rays``, fan rays, rooftop facets) follow qbary's facet
order, which the oracle does not know: it checks their number or their set,
and the translation identity checks the indices themselves.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from geometry import Shape, dot, enc, laurent, pcoef, peval, pmul, pshift, ptrim, rooftop, rooftop_is_delzant


def _vec(v) -> list:
    return [enc(x) for x in v]


def _poly_json(p) -> list:
    return [enc(c) for c in p]


def _thresholds(shape: Shape, bc) -> tuple[Fraction, int]:
    dens = [dot(bc, u) + b for u, b in shape.facets]
    top = max(dens)
    return 1 / top, dens.count(top)


def _diagnostics(spec: dict, shape: Shape) -> dict:
    n, cmd = shape.dim, spec["cmd"]
    if cmd == "bck":
        out = {"rational_function_checked": True}
        if n == 2 and shape.reflexive:
            out["reflexive_polygon_form_checked"] = True
        return out
    if cmd == "ehrhart" and shape.reflexive and n in (2, 3):
        return {"reflexive_closed_form_checked": True}
    if cmd == "delta" and "k" in spec and n == 2 and shape.reflexive and shape.delzant:
        return {"del_pezzo_form_checked": True}
    return {}


def _rays_valid(rays, count: int) -> bool:
    return list(rays) == sorted(set(rays)) and all(0 <= i < count for i in rays)


def _delta_seq_pairs(spec: dict, shape: Shape, out: dict) -> list:
    n, m = shape.dim, len(shape.facets)
    order = spec.get("order", 2)
    kE = pshift(shape.E)
    nums = [_pairing_with_offset(shape, u, b, kE) for u, b in shape.facets]
    depth = max(order, n + 2)
    series = [laurent(num, kE, depth) for num in nums]
    best = max(range(m), key=lambda i: series[i])
    k0 = 1
    for num in nums:
        if num == nums[best]:
            continue
        diff = _sub(nums[best], num)
        bound = int(1 + max(abs(c / diff[-1]) for c in diff)) + 1
        k0 = max([k0] + [k + 1 for k in range(1, bound + 1) if peval(diff, k) <= 0])
    values = []
    for k in spec["ks"]:
        value, ties = _thresholds(shape, shape.bc_k(k))
        values.append((k, enc(value), ties, True))
    actual_values = [
        (e["k"], e["delta_k"], len(e["argmin_rays"]), _rays_valid(e["argmin_rays"], m))
        for e in out["values"]
    ]
    limit, ties = _thresholds(shape, shape.barycenter)
    num = ptrim(Fraction(x) for x in out["dominant"]["num"])
    den = ptrim(Fraction(x) for x in out["dominant"]["den"])
    return [
        ("values", values, actual_values),
        ("delta", enc(limit), out["delta"]),
        ("limit_argmin_count", ties, len(out["limit_argmin_rays"])),
        ("dominant", pmul(num, nums[best]), pmul(den, kE)),
        ("dominant_den_normalized", True, _normalized(den)),
        ("dominant_rays_count", nums.count(nums[best]), len(out["dominant"]["rays"])),
        ("k0", k0, out["k0"]),
        ("asymptotics", _vec(laurent(kE, nums[best], order)), out["asymptotics"]),
    ]


def _pairing_with_offset(shape: Shape, u, b, kE):
    """Numerator of <Bc_k, u> + b over k E(k)."""
    total = shape.pairing(u)
    return ptrim(
        pcoef(total, j) + b * pcoef(kE, j) for j in range(max(len(total), len(kE)))
    )


def _sub(a, b):
    return ptrim(pcoef(a, j) - pcoef(b, j) for j in range(max(len(a), len(b))))


def _normalized(den) -> bool:
    if any(c.denominator != 1 for c in den) or den[-1] <= 0:
        return False
    g = 0
    for c in den:
        g = gcd(g, int(c))
    return g == 1


def oracle_pairs(spec: dict, shape: Shape, doc: dict) -> list:
    """Expected against actual for every checked field of one item."""
    cmd, n = spec["cmd"], shape.dim
    out = doc["outputs"]
    diag = ("diagnostics", _diagnostics(spec, shape), doc.get("diagnostics", {}))
    kE = pshift(shape.E)
    if cmd == "count":
        return [("count", enc(peval(shape.E, spec["k"])), out["count"])]
    if cmd == "bck":
        return [("Bc_k", _vec(shape.bc_k(spec["k"])), out["Bc_k"]), diag]
    if cmd == "bc":
        expected = {
            "Bc": _vec(shape.barycenter),
            "volume": enc(shape.volume),
            "boundary_volume": enc(shape.boundary_volume),
            "boundary_barycenter": _vec(shape.boundary_barycenter),
        }
        return [("outputs", expected, out)]
    if cmd == "ehrhart":
        return [("outputs", {"coefficients": _poly_json(shape.E), "source": "fitted"}, out), diag]
    if cmd == "hrr":
        return [("outputs", {"coefficients": _poly_json(shape.E)}, out)]
    if cmd == "reciprocity":
        reflexive = {"reflexive": True} if shape.reflexive else {}
        checks = [{"k": k, "general": True, **reflexive} for k in range(1, spec["kmax"] + 1)]
        return [("outputs", {"checks": checks, "all_passed": True}, out)]
    if cmd == "expand":
        order = spec.get("order", 2 * n + 2)
        per_coord = [laurent(s, kE, order) for s in shape.S]
        return [("a", [_vec(c[j] for c in per_coord) for j in range(order)], out["a"])]
    if cmd == "df":
        order = spec.get("order", 3)
        return [("DF", _vec(laurent(shape.pairing(spec["v"]), kE, order)), out["DF"])]
    if cmd == "classify":
        return [("outputs", {"reflexive": shape.reflexive, "delzant": shape.delzant}, out)]
    if cmd == "delta":
        if "k" in spec:
            value, ties = _thresholds(shape, shape.bc_k(spec["k"]))
            key = "delta_k"
        else:
            value, ties = _thresholds(shape, shape.barycenter)
            key = "delta"
        pairs = [
            (key, enc(value), out[key]),
            ("argmin", (ties, True), (len(out["argmin_rays"]), _rays_valid(out["argmin_rays"], len(shape.facets)))),
            diag,
        ]
        if "k" in spec:
            pairs.append(("k", spec["k"], out["k"]))
        return pairs
    if cmd == "delta-seq":
        return _delta_seq_pairs(spec, shape, out)
    v = tuple(spec["v"])
    q = 1 - shape.support(v)
    if cmd == "fan":
        lifted = sorted(u + (0,) for u, _ in shape.facets)
        rays = [tuple(r) for r in out["rays"]]
        return [
            ("q", q, out["q"]),
            ("facet_rays", lifted, sorted(rays[:-2])),
            ("extra_rays", [(0,) * n + (1,), v + (-1,)], rays[-2:]),
        ]
    if cmd == "rooftop":
        verts, facets = rooftop(shape, v, q)
        return [
            ("q", q, out["q"]),
            ("vertices", sorted(verts), sorted(tuple(x) for x in out["vertices"])),
            ("facets", sorted(facets), sorted(zip(map(tuple, out["normals"]), out["offsets"]))),
        ]
    if cmd == "rooftop-coeffs":
        pairing = shape.pairing(v)
        cprime = [enc(pcoef(pairing, j)) for j in range(1, n + 2)]
        expected = {"c_prime": cprime, "q": q, "formula_available": rooftop_is_delzant(shape, v, q)}
        if expected["formula_available"]:
            expected["formula_values"] = cprime
        return [("outputs", expected, out)]
    raise ValueError(f"no oracle for command {cmd}")


def _shift(vec, t) -> list:
    return [enc(Fraction(x) + y) for x, y in zip(vec, t)]


def translation_pairs(spec: dict, shape: Shape, t, base: dict, doc: dict) -> list:
    """Expected output of P + t predicted from the output for P."""
    cmd = spec["cmd"]
    was, out = base["outputs"], doc["outputs"]
    if cmd in ("count", "hrr", "delta", "delta-seq"):
        return [("outputs", was, out)]
    if cmd == "reciprocity":  # whether a "reflexive" entry appears depends on the origin
        general = lambda doc: [(c["k"], c["general"]) for c in doc["checks"]] + [doc["all_passed"]]
        return [("general", general(was), general(out))]
    if cmd == "ehrhart":
        return [("coefficients", was["coefficients"], out["coefficients"])]
    if cmd == "classify":
        return [("delzant", was["delzant"], out["delzant"])]
    if cmd == "bck":
        return [("Bc_k", _shift(was["Bc_k"], t), out["Bc_k"])]
    if cmd == "bc":
        expected = dict(was, Bc=_shift(was["Bc"], t), boundary_barycenter=_shift(was["boundary_barycenter"], t))
        return [("outputs", expected, out)]
    if cmd == "expand":
        return [("a", [_shift(was["a"][0], t)] + was["a"][1:], out["a"])]
    tv = dot(t, spec["v"])
    if cmd == "df":
        return [("DF", _shift(was["DF"][:1], (tv,)) + was["DF"][1:], out["DF"])]
    if cmd == "fan":
        return [("outputs", dict(was, q=was["q"] - tv), out)]
    if cmd == "rooftop":
        lift = tuple(t) + (0,)
        expected = {
            "q": was["q"] - tv,
            "vertices": [[x + y for x, y in zip(v, lift)] for v in was["vertices"]],
            "normals": was["normals"],
            "offsets": [b - dot(u, lift) for u, b in zip(was["normals"], was["offsets"])],
        }
        return [("outputs", expected, out)]
    if cmd == "rooftop-coeffs":
        shifted = [enc(Fraction(c) + tv * pcoef(shape.E, j)) for j, c in enumerate(was["c_prime"])]
        expected = dict(was, c_prime=shifted, q=was["q"] - tv)
        if "formula_values" in was:
            expected["formula_values"] = [
                enc(Fraction(c) + tv * pcoef(shape.E, j)) for j, c in enumerate(was["formula_values"])
            ]
        return [("outputs", expected, out)]
    raise ValueError(f"no translation identity for command {cmd}")


def header_ok(spec: dict, doc: dict) -> bool:
    return doc.get("command") == spec["cmd"] and doc.get("input") is None


def corrupt(value):
    """A reference value that differs from ``value`` in one leaf."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, Fraction)):
        return value + 1
    if isinstance(value, str):
        return enc(Fraction(value) + 1)
    if isinstance(value, tuple):
        return (corrupt(value[0]),) + value[1:] if value else (0,)
    if isinstance(value, list):
        return [corrupt(value[0])] + value[1:] if value else [0]
    if isinstance(value, dict):
        if not value:
            return {"corrupted": True}
        key = next(iter(value))
        return dict(value, **{key: corrupt(value[key])})
    raise TypeError(f"cannot corrupt {value!r}")
