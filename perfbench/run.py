#!/usr/bin/env python3
"""Build and run the repository benchmark from the repository root.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Builds perfbench/main.exe and bin/bvf.exe from source into .bench_build
(release profile, no shared dune cache), then runs one workload.  The
last line of standard output is the JSON result; build output goes to
standard error.  See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["campaign", "campaign-jobs2", "serve-zipf"]
BUILD_DIR = ".bench_build"
OUT_DIR = os.path.join("perfbench", "out")
REQUIRED = ["dune-project", "bin/bvf.ml", "lib/core/campaign.ml",
            "perfbench/main.ml"]
RUN_TIMEOUT_S = 170


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.md5()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "out")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(top):
            with open(top, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def build_env():
    """The environment for the build: when dune is not on PATH (a
    shell that never loaded the opam environment), put the bin directory
    of an opam switch that has it in front.  None when none is found."""
    env = dict(os.environ)
    if shutil.which("dune"):
        return env
    root = env.get("OPAMROOT") or os.path.expanduser("~/.opam")
    dirs = []
    if env.get("OPAM_SWITCH_PREFIX"):
        dirs.append(os.path.join(env["OPAM_SWITCH_PREFIX"], "bin"))
    if env.get("OPAMSWITCH"):
        dirs.append(os.path.join(root, env["OPAMSWITCH"], "bin"))
    dirs.append(os.path.join(root, "default", "bin"))
    dirs += sorted(glob.glob(os.path.join(root, "*", "bin")))
    for d in dirs:
        if os.access(os.path.join(d, "dune"), os.X_OK):
            env["PATH"] = d + os.pathsep + env.get("PATH", "")
            env["OPAM_SWITCH_PREFIX"] = os.path.dirname(d)
            return env
    return None


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    missing = [f for f in REQUIRED if not os.path.isfile(f)]
    if missing:
        print("perfbench: run from the repository root; missing: "
              + ", ".join(missing), file=sys.stderr)
        return 2

    env = build_env()
    if env is None:
        print("perfbench: dune not found on PATH or in an opam switch",
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "--profile", "release", "--cache", "disabled",
         "./perfbench/main.exe", "./bin/bvf.exe"],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")
    bvf = os.path.join(BUILD_DIR, "default", "bin", "bvf.exe")
    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--bvf", bvf, "--out", OUT_DIR, "--commit", source_revision()]
    # own process group, so a timeout also takes down the bvf serve child
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
