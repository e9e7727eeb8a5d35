#!/bin/sh
# Run the README's command-line examples and the extra cases CI checks, each
# as `python -m qdefect`, in the current directory: every command writes its
# files here, and their stdout goes to this script's stdout.  It stops at the
# first command that fails.  With `PYTHONPATH=<checkout>/src` it runs any
# checkout's code, so two trees' outputs can be compared with `diff -r`:
#
#   mkdir a b
#   (cd a && PYTHONPATH=/path/to/one/src sh /path/to/scripts/readme_commands.sh > stdout.txt)
#   (cd b && PYTHONPATH=/path/to/other/src sh /path/to/scripts/readme_commands.sh > stdout.txt)
#   diff -r a b
set -e

python -m qdefect solve --a2 1 --c2 1 --b2 0 --L 0.01 --R 1 --k 1 --n 512 -o run
python -m qdefect limit --k 2 --n 512 --m 256 -o lim
python -m qdefect limit --k 2 --n 512 --m 256 -o limModule
python -m qdefect residual --input run_profile.csv --L 0.01 --k 1 -o res
python -m qdefect render --branch minus --k 1 --n 256 --style rod -o img
python -m qdefect render --input run_profile.csv --k 1 --L 0.01 --style box -o img2
python -m qdefect sweep --L-list 0.1,0.03,0.01,0.003 --k 1 --n 1024 -o sweepL
python -m qdefect sweep --b2-list 0,0.05,0.1 --L 0.1 --k 1 -o sweepB
python -m qdefect energy --input run_profile.csv --L 0.01 --k 1
python -m qdefect energy --input run_profile.csv --L 0.01 --k 1 -o en
python -m qdefect limit --k 4 --L 0.001 --n 2048 --m 1024 -o big
python -m qdefect limit --k 3 --n 2048 --m 1024 -o bigodd
python -m qdefect limit --k 2 --R 2.5 --n 512 --m 256 -o limR
python -m qdefect solve --k 3 --b2 1 --L 0.001 --n 2048 -o graded
# the residual's b2 != 0 term on a graded k = 3 solve
python -m qdefect residual --input graded_profile.csv --L 0.001 --b2 1 --k 3 -o resG
python -m qdefect sweep --b2-list 0,0.5,1 --k -2 --L 0.01 -o gradedB
python -m qdefect solve --k 1 --L 0.001 --n 2048 --init ramp -o ramp
python -m qdefect solve --k -2 --b2 0.5 --L 0.001 --n 2048 --init ramp -o dampedB
python -m qdefect solve --k 1 --L 0.001 --n 4096 -o big4096
python -m qdefect render --branch plus --k 2 --n 256 --density 64 --style box -o d64box
python -m qdefect render --branch minus --k 3 --n 256 --density 64 --style rod -o d64rod
python -m qdefect solve --k 1 --L 0.01 --R 2.5 --n 256 -o runR
python -m qdefect render --input runR_profile.csv --k 1 -o imgR
python -m qdefect residual --input runR_profile.csv --L 0.01 --k 1 -o resR
python -m qdefect energy --input runR_profile.csv --L 0.01 --k 1 -o enR
# |Y| ~ 1e150: the glyph biaxiality must not overflow
python -m qdefect render --branch minus --k 1 --n 16 --a2 1e300 --style rod -o hugeRod
python -m qdefect render --branch minus --k 1 --n 16 --a2 1e300 --style box -o hugeBox
