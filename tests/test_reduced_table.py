"""The derived rule against a particle model written from the paper's
description, not from convert.py: both evaluators read one table, so
this model is what checks the table's contents."""

import numpy as np
import pytest

from rncca.convert import convert
from rncca.rpca import example_rpca

SOURCES = {
    "xor": example_rpca("xor"),
    "random-3x4": example_rpca("random", 3, 4, seed=2),
    "random-4x6": example_rpca("random", 4, 6, seed=1),
}


def particle_model(p, a, b, c, d):
    """Next state of the cell holding c, whose neighbors are a, b on the
    left and d on the right (numpy arrays of states).

    A state is a heavy mass (heavy index h times 2|R|) plus a light mass
    below 2|R|.  Heavy indices below |C| and light masses below |R| are
    hat halves; index 2|C|-1-h and light 2|R|-1-l are the check halves
    that complement them.  Light masses move one cell right and heavy
    masses stay, except at a transition site: a hat/check light pair on
    (b, c) just left of a hat/check heavy pair on (c, d), or one cell
    later on (a, b) and (b, c).  There the site holds the hat and check
    images of the source pair (heavy index of the hat cell, light mass of
    the left light cell), which the source table rewrites: the leading
    cell takes the new pair's hat image, the trailing cell its check
    image.
    """
    c_size, r_size = p.c_size, p.r_size
    mass = 2 * r_size
    a, b, c, d = (np.asarray(x, dtype=np.int64) for x in (a, b, c, d))
    index = {name: q // mass for name, q in zip("abcd", (a, b, c, d))}
    light = {name: q % mass for name, q in zip("abcd", (a, b, c, d))}

    def light_pair(x, y):
        return (light[x] < r_size) & (light[y] == mass - 1 - light[x])

    def heavy_pair(x, y):
        return (index[x] < c_size) & (index[y] == 2 * c_size - 1 - index[x])

    leading = light_pair("b", "c") & heavy_pair("c", "d")
    trailing = light_pair("a", "b") & heavy_pair("b", "c")
    assert not (leading & trailing).any()
    new_c = np.array([[p.table[x][y][0] for y in range(r_size)] for x in range(c_size)])
    new_r = np.array([[p.table[x][y][1] for y in range(r_size)] for x in range(c_size)])
    x = np.where(leading, index["c"], np.where(trailing, index["b"], 0))
    y = np.where(leading, light["b"], np.where(trailing, light["a"], 0))
    hat_image = new_c[x, y] * mass + new_r[x, y]
    check_image = (2 * c_size - 1 - new_c[x, y]) * mass + (mass - 1 - new_r[x, y])
    shifted = index["c"] * mass + light["b"]
    return np.where(leading, hat_image, np.where(trailing, check_image, shifted))


def check_both_evaluators(rule, p, cols):
    expect = particle_model(p, *cols)
    assert np.array_equal(rule.local_batch(cols), expect)
    assert list(map(rule.local, *(col.tolist() for col in cols))) == expect.tolist()


@pytest.mark.parametrize("name", SOURCES)
def test_table_matches_particle_model_on_reduced_domain(name):
    # Every (light(q-2), q-1, q0, heavy(q1)) once: q-2 below 2|R| carries
    # only a light mass, q1 a multiple of 2|R| only a heavy one.
    p = SOURCES[name]
    rule = convert(p)
    s, mass = rule.state_count, 2 * p.r_size
    grid = np.meshgrid(np.arange(mass), np.arange(s), np.arange(s), np.arange(0, s, mass), indexing="ij")
    check_both_evaluators(rule, p, [axis.ravel() for axis in grid])


@pytest.mark.parametrize("name", SOURCES)
def test_table_matches_particle_model_on_full_windows(name):
    # Random states in all four cells: heavy(q-2) and light(q1) vary too
    # and must not change the result.
    p = SOURCES[name]
    rule = convert(p)
    windows = np.random.default_rng(3).integers(0, rule.state_count, size=(4, 50000))
    check_both_evaluators(rule, p, list(windows))
