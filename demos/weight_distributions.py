"""Weight distributions versus the closed-form predictions.

Shows, for a few instances of the main family, that every codeword
built from s generator rows has the same predicted weight w_s, and
that the census at w_s is C(t,s)(q-1)^s. The binomial factor matters:
a published count without it undercounts whenever C(t,s) > 1, and at
(t,q) = (4,4) two strata even share one weight (w_2 = w_4 = 16), so
their counts add.
"""

from mincodes import first, weight_distribution, weight_strata
from mincodes.constructions import comb0, predicted_ws


def main():
    for t, q in ((3, 3), (4, 4), (5, 4)):
        code = first(t, q)
        print(f"first({t},{q}) = [{code.n},{code.k}]_{q}")
        strata = weight_strata(code)
        for s in range(1, t + 1):
            got = sorted(strata[s])
            ws = predicted_ws(s, t, q)
            count = comb0(t, s) * (q - 1) ** s
            print(f"  s={s}: weight {got} (predicted {ws}), "
                  f"{count} codewords = C({t},{s})*(q-1)^{s}")
        dist = weight_distribution(code)
        print(f"  full distribution: "
              + " ".join(f"{w}:{c}" for w, c in sorted(dist.counts.items())))
        print()
    print("at (4,4) the distribution shows 135 words at weight 16:")
    print("54 from s=2 plus 81 from s=4, the two strata colliding.")


if __name__ == "__main__":
    main()
