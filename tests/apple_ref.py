"""Reference victim policies for `Imdb.select_victim_apple`.

`select_victim_apple` is AppLE as first written: one `Random.randrange` per
group and a (maximal sub-counter, rewrite counter, slot) tuple per sample;
the least tuple wins. The indexed version must pick the same slot and leave
the generator in the same state. `select_victim_exact` is the global policy
that AppLE approximates, the least key over the whole table; AppLE with one
slot per group (`n_groups = n_mt`) must equal it.
"""


def victim_key(entry, slot):
    return (max(entry.zfc), entry.rewrite_cntr, slot)


def select_victim_exact(table) -> int:
    table._require_full()
    return min(range(len(table.mt)), key=lambda i: victim_key(table.mt[i], i))


def select_victim_apple(table, rng) -> int:
    n_groups = table.cfg.n_groups
    group_size = len(table.mt) // n_groups
    best = None
    for g in range(n_groups):
        slot = g * group_size + rng.randrange(group_size)
        key = victim_key(table.mt[slot], slot)
        if best is None or key < best[0]:
            best = (key, slot)
    return best[1]
