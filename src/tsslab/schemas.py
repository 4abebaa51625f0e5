"""Versioned JSON document shapes and the serializers that produce them.

All documents carry ``format: 1``.  The schema dicts are plain JSON-schema
objects; tests validate emitted documents against them.
"""

from __future__ import annotations

from typing import Any

from .homs import BraidCorollaryReport
from .tss import StabilizerDecomposition, TssCertificate, TssReport

FORMAT_VERSION = 1

TSS_REPORT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["format", "group", "s_of_g", "counts", "maximal_sets"],
    "properties": {
        "format": {"const": FORMAT_VERSION},
        "group": {"type": "string"},
        "order": {"type": "integer", "minimum": 1},
        "s_of_g": {"type": "integer", "minimum": 1},
        "counts": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
        "maximal_sets": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["elements", "labels", "witnesses"],
                "properties": {
                    "elements": {"type": "array", "items": {"type": "integer"}},
                    "labels": {"type": "array", "items": {"type": "string"}},
                    "witnesses": {
                        "type": "object",
                        "additionalProperties": {"type": "integer"},
                    },
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}

HOM_REPORT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["format", "presentation", "target", "applicable", "hom_count",
                 "image_order_histogram", "all_cyclic", "elapsed_s"],
    "properties": {
        "format": {"const": FORMAT_VERSION},
        "presentation": {
            "type": "object",
            "required": ["name", "generators", "relators"],
            "properties": {
                "name": {"type": "string"},
                "generators": {"type": "integer", "minimum": 1},
                "relators": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "target": {"type": "string"},
        "threshold": {"type": "integer"},
        "s_target": {"type": "integer"},
        "applicable": {"type": "boolean"},
        "hom_count": {"type": "integer", "minimum": 0},
        "image_order_histogram": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
        "all_cyclic": {"type": "boolean"},
        "noncyclic_images": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
        "elapsed_s": {"type": "number", "minimum": 0},
    },
    "additionalProperties": False,
}

SUITE_RESULT_SCHEMA: dict[str, Any] = {
    "type": "object",
    "required": ["format", "theorem", "passed", "instances"],
    "properties": {
        "format": {"const": FORMAT_VERSION},
        "theorem": {"type": "string"},
        "passed": {"type": "boolean"},
        "elapsed_s": {"type": "number", "minimum": 0},
        "artifacts": {"type": "array", "items": {"type": "string"}},
        "instances": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["params", "verdict", "detail"],
                "properties": {
                    "params": {"type": "object"},
                    "verdict": {"type": "string"},
                    "detail": {"type": "string"},
                    "counterexample": {"type": ["object", "null"]},
                    "repro": {"type": ["string", "null"]},
                    "elapsed_s": {"type": "number", "minimum": 0},
                },
                "additionalProperties": False,
            },
        },
    },
    "additionalProperties": False,
}


def certificate_to_json(cert: TssCertificate) -> dict[str, Any]:
    return {
        "elements": list(cert.elements),
        "labels": [cert.group.label(x) for x in cert.elements],
        "witnesses": {f"{i}-{j}": w for (i, j), w in sorted(cert.witnesses.items())},
    }


def tss_report_to_json(report: TssReport, order: int) -> dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "group": report.group_description,
        "s_of_g": report.s_of_g,
        "counts": {str(k): v for k, v in sorted(report.counts.items())},
        "maximal_sets": [certificate_to_json(c) for c in report.maximal_sets],
        "order": order,
    }


def stabilizer_to_json(dec: StabilizerDecomposition) -> dict[str, Any]:
    return {
        "stabilizer_order": len(dec.stabilizer),
        "kernel_order": len(dec.kernel),
        "realized_order": len(dec.realized),
        "realized": {
            " ".join(map(str, perm)): witness
            for perm, witness in sorted(dec.realized.items())
        },
    }


def braid_report_to_json(report: BraidCorollaryReport) -> dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "presentation": {
            "name": f"braid:{report.strands}",
            "generators": report.strands - 1,
            "relators": (report.strands - 1) * (report.strands - 2) // 2,
        },
        "target": report.target_name,
        "threshold": report.threshold,
        "s_target": report.s_target,
        "applicable": report.applicable,
        "hom_count": report.hom_count,
        "image_order_histogram": {
            str(k): v for k, v in report.image_order_histogram.items()
        },
        "all_cyclic": report.all_cyclic,
        "noncyclic_images": [list(t) for t in report.noncyclic_images],
        "elapsed_s": report.elapsed_s,
    }
