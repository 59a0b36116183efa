"""A deliberately failing instance: z dx^dy on the (x, y, z) patch is not
closed, so mapping its graph into the standard Courant algebroid cannot
preserve the bracket. The report names the violated condition and prints
a witness with the exact residual."""

import sys

from algebroids import cli


def main():
    code = cli.main(["check", "im2form", "nonclosed-zdxdy", "--seed", "1",
                     "--format", "text"])
    print()
    if code != 1:
        print("exit status %d, but a failing instance should exit 1" % code)
        return 1
    print("exit status 1, as expected for a failing instance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
