"""Hypothesis strategies shared by the test modules."""

from hypothesis import strategies as st

from fibpart.fibcore import content, fib

MAX_INDEX = 5900                   # f_5900 has about 4096 bits


@st.composite
def long_block_numbers(draw):
    """Numbers of up to ~4096 bits built from their Zeckendorf indices as
    long equal-parity blocks (in-block gaps 2 or 4, odd gaps 3 or 5
    between blocks)."""
    i = draw(st.integers(min_value=1, max_value=2))
    indices = []
    for length, step, jump in draw(st.lists(
            st.tuples(st.integers(min_value=1, max_value=300),
                      st.sampled_from((2, 4)), st.sampled_from((3, 5))),
            min_size=1, max_size=8)):
        for _ in range(length):
            indices.append(i)
            i += step
        i += jump - step
    return content(tuple(j for j in indices if j <= MAX_INDEX))


# f_r - 1 and f_r, 2 <= r <= MAX_INDEX: one digit pattern each at every size
fibonacci_neighbours = st.builds(lambda r, e: fib(r) - e,
                                 st.integers(min_value=2, max_value=MAX_INDEX),
                                 st.integers(min_value=0, max_value=1))
