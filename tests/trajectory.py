"""Two distributed models, one trajectory: the harness behind every
"pool == in-process" and "chaos == fault-free" assertion."""


def assert_same_trajectory(model_a, model_b, steps: int) -> None:
    """Step both models ``steps`` times; after every step their gathered
    states agree byte for byte and their simulated clocks exactly."""
    for k in range(1, steps + 1):
        model_a.step()
        model_b.step()
        ga, gb = model_a.gather_state(), model_b.gather_state()
        for f in model_a._fields:
            assert getattr(ga, f).tobytes() == getattr(gb, f).tobytes(), \
                f"{f} differs after step {k}"
        assert model_a.max_rank_time() == model_b.max_rank_time(), \
            f"simulated clocks differ after step {k}"
