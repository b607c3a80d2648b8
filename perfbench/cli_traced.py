"""Run the fermi-spectra CLI once with spans recorded; used by traced runs only.

    python3 perfbench/cli_traced.py SPANS_JSON <cli arguments>

Imports the package inside a "package.import" span, wraps its layers
(spans.py), calls fermi_spectra.cli.main with the remaining arguments,
writes the spans to SPANS_JSON and exits with the CLI's exit code.
"""

import json
import sys

import spans


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    span = tracer.open("package.import")
    import fermi_spectra
    import fermi_spectra.cli

    tracer.close(span)
    tracer.install(fermi_spectra)
    code = fermi_spectra.cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
