"""Pinned fault-injected reports: injector → ingest gate → analysis guards.

The rendered report of a fault-injected run depends on which rows the
injector dirties, which the ingest gate quarantines, and which every
analysis guard drops after it.  These digests pin that whole path for the
``default`` and ``heavy`` profiles (default seed, scale 0.05), so a change
to a validity rule or to the path text format that moves one kept row
fails here.

Re-baselining on purpose -- a change meant to alter what the injector or
the rules do -- prints the new digests with::

    PYTHONPATH=src python -c "
    import hashlib
    from repro.faults import get_profile
    from repro.runtime import run_pipeline
    from repro.synth import GeneratorConfig
    for p in ('default', 'heavy'):
        run = run_pipeline(GeneratorConfig(scale=0.05), profile=get_profile(p),
                           checkpoint_dir=None)
        text = run.render(include_report=False)
        print(p, hashlib.sha256(text.encode()).hexdigest())"
"""

import hashlib

import pytest

from repro.faults import get_profile
from repro.runtime import run_pipeline
from repro.synth import GeneratorConfig

#: sha256 of ``render(include_report=False)`` per fault profile.
PINNED = {
    "default": "d9503550cdf996bd84ca9fc61676ca72fcba36e53f03bbd480aeb9bdac9a224b",
    "heavy": "fbff5cffafe12585cce04d6be3bcd86a96937a4eb4503553a3e0870e2e68aa1d",
}


@pytest.mark.parametrize("profile", sorted(PINNED))
def test_fault_injected_report_is_pinned(profile):
    run = run_pipeline(
        GeneratorConfig(scale=0.05), profile=get_profile(profile), checkpoint_dir=None
    )
    text = run.render(include_report=False)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[profile]
