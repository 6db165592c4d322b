import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# every name the benchmark's tracer rebinds must exist, or every traced
# benchmark run fails at start-up
_INSTALL_TRACER = """
import bench, tracing
targets = bench.trace_targets()
sites = [site for _, group, _ in targets for site in group]
before = [getattr(owner, attr) for owner, attr in sites]
tracer = tracing.Tracer()
tracer.install(targets)
assert all(getattr(owner, attr) is not fn for (owner, attr), fn in zip(sites, before))
tracer.uninstall()
assert all(getattr(owner, attr) is fn for (owner, attr), fn in zip(sites, before))
print(len(targets))
"""


def test_tracer_installs_on_every_target():
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", _INSTALL_TRACER], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) > 0
