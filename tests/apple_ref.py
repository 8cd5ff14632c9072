"""AppLE victim selection as first written, used as the reference for
`Imdb.select_victim_apple`.

One `Random.randrange` per group and a (maximal sub-counter, rewrite
counter, slot) tuple per sample; the least tuple wins. The indexed version
must pick the same slot and leave the generator in the same state.
"""


def select_victim_apple(table, rng) -> int:
    n_groups = table.cfg.n_groups
    group_size = len(table.mt) // n_groups
    best = None
    for g in range(n_groups):
        slot = g * group_size + rng.randrange(group_size)
        e = table.mt[slot]
        key = (e.zfc[e.max_zfc_idx], e.rewrite_cntr, slot)
        if best is None or key < best[0]:
            best = (key, slot)
    return best[1]
