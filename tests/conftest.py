import pytest


def completed_partitions(out: str) -> set[str]:
    """Ids of the partitions of the store at ``out`` whose chunk file is
    on disk with its recorded size."""
    from json_to_parquet_ray.manifest import is_complete, load_manifest

    return {pid for pid, r in load_manifest(out).items()
            if is_complete(out, r)}


@pytest.fixture(scope="session")
def ray_session():
    import ray

    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def both_sides(monkeypatch):
    """``both_sides(read)`` calls ``read()`` once per shape of the record
    scan and returns both results: first the one fused task, then the
    distributed scan. The shape is forced on the driver by patching the
    per-task record budget, past any test store and then to 1 (every
    non-empty store scans); the default budget is restored after."""
    from json_to_parquet_ray.pipelines import encode_job as ej

    default = ej.TASK_RECORDS

    def run(read):
        got = []
        for budget in (1 << 62, 1):
            monkeypatch.setattr(ej, "TASK_RECORDS", budget)
            got.append(read())
        monkeypatch.setattr(ej, "TASK_RECORDS", default)
        return got

    return run
