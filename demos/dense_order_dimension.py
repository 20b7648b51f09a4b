"""Dimension over the dense linear order (Q, <), computed symbolically.

Every definable subset of Q^m is a finite union of order cells.  Its
dimension can be read off two independent ways -- from the free blocks of
its order diagrams, or from its largest full coordinate projection -- and
the two always agree.  Dimension is also exactly the depth of the deepest
verifiable threshold pattern, and it adds up under cartesian products.
"""
from opdim import check_ird
from opdim.dlo import dimension, ird_witness_from_dim, order_diagrams, product, qe_dlo
from opdim.logic import DLO_SIGNATURE, parse_formula, print_formula


def main():
    print("quantifier elimination first:")
    f = parse_formula("exists y. x < y & y < z", DLO_SIGNATURE)
    print(f"  exists y. x < y & y < z   ==   {print_formula(qe_dlo(f))}\n")

    examples = [
        ("x0 < x1", 2),
        ("x0 = x1", 2),
        ("x0 = 0 & 0 < x1", 2),
        ("x0 = 0 & x1 = 1", 2),
        ("x0 < x1 & x1 < x2", 3),
    ]
    print("dimension by diagrams vs by projections:")
    for text, m in examples:
        f = parse_formula(text, DLO_SIGNATURE)
        d = dimension(f, m, method="diagram")
        p = dimension(f, m, method="projection")
        assert d.dimension == p.dimension
        print(f"  dim {{ {text} }} in Q^{m}  =  {d.dimension}")
    print()

    print("a union of a diagonal and a half-plane decomposes into cells:")
    f = parse_formula("x0 = x1 | x0 < 0", DLO_SIGNATURE)
    for diagram in order_diagrams(f):
        print(f"  cell: {print_formula(diagram.to_formula())}")
    print()

    print("dimension d yields a verified depth-d threshold pattern:")
    f = parse_formula("x0 < x1", DLO_SIGNATURE)
    pattern = ird_witness_from_dim(f, 2)
    ok, _ = check_ird(pattern)
    print(f"  depth {pattern.depth}, length {pattern.length}, "
          f"verified: {ok}\n")

    print("dimension is additive on products:")
    g = parse_formula("x0 = 0", DLO_SIGNATURE)
    h = parse_formula("0 < x0 & x0 < 1", DLO_SIGNATURE)
    dg = dimension(g, 1).dimension
    dh = dimension(h, 1).dimension
    dp = dimension(product(g, 1, h, 1), 2).dimension
    print(f"  dim(point) = {dg}, dim(interval) = {dh}, "
          f"dim(point x interval) = {dp}")


if __name__ == "__main__":
    main()
