"""Build file of the benchmark: compiles the program (src/main/scala) and the
benchmark sources (perfbench/src) with the Scala compiler that ships in the
Spark distribution, into <build dir>/classes.

A build is skipped when a hash of every source file's path and contents
matches the previous build.
"""

import hashlib
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", ROOT / "perfbench" / "src"]


def spark_jars():
    """The jars of the Spark distribution: $SPARK_HOME/jars, else the
    directory the sbt build compiles against."""
    if os.environ.get("SPARK_HOME"):
        jars = Path(os.environ["SPARK_HOME"]) / "jars"
    else:
        sbt = ROOT / "build.sbt"
        m = re.search(r'unmanagedBase\s*:=\s*file\("([^"]+)"\)', sbt.read_text()) if sbt.is_file() else None
        jars = Path(m.group(1)) if m else None
    if jars is None or not jars.is_dir():
        raise SystemExit("no Spark distribution found; set SPARK_HOME")
    return jars


def sources():
    files = []
    for d in SOURCE_DIRS:
        if not d.is_dir():
            raise SystemExit(f"missing source directory {d.relative_to(ROOT)}")
        files += sorted(d.rglob("*.scala"))
    return files


def stamp(files):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def build(build_dir):
    """Compile if stale; return the classpath entry of the compiled classes."""
    files = sources()
    classes = build_dir / "classes"
    stamp_file = build_dir / "classes.stamp"
    want = stamp(files)
    if classes.is_dir() and stamp_file.is_file() and stamp_file.read_text() == want:
        return classes
    shutil.rmtree(classes, ignore_errors=True)
    classes.mkdir(parents=True)
    cp = str(spark_jars() / "*")
    cmd = ["java", "-Xmx2g", "-XX:-UsePerfData", "-cp", cp, "scala.tools.nsc.Main",
           "-nowarn", "-d", str(classes), "-classpath", cp] + [str(f) for f in files]
    print(f"compiling {len(files)} Scala sources", file=sys.stderr)
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        shutil.rmtree(classes, ignore_errors=True)
        raise SystemExit("compilation failed")
    stamp_file.write_text(want)
    return classes


if __name__ == "__main__":
    build(ROOT / ".bench_build" / "perfbench")
