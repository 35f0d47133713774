"""Experiment drivers reproducing every figure of the paper."""

from .base import (
    ExperimentResult,
    clear_engine_cache,
    engine_cache_info,
    fit_cached,
    loocv_cached,
)
from .dataset import (
    ARM_LLV,
    DEFAULT_JITTER,
    Dataset,
    DatasetSpec,
    X86_SLP,
    build_dataset,
    clear_dataset_memo,
)
from .categories import category_report, worst_categories
from .corpus import (
    corpus_kernel_names,
    publish_corpus_model,
    run_e13,
)
from .registry import EXPERIMENTS, EXPLICIT_ONLY, run_all, run_experiment
from .reporting import ascii_table, fail_summary, text_scatter
from .scheduler import SuiteRun, run_suite

__all__ = [
    "ExperimentResult",
    "clear_engine_cache",
    "engine_cache_info",
    "fit_cached",
    "loocv_cached",
    "SuiteRun",
    "run_suite",
    "ARM_LLV",
    "DEFAULT_JITTER",
    "Dataset",
    "DatasetSpec",
    "X86_SLP",
    "build_dataset",
    "clear_dataset_memo",
    "category_report",
    "worst_categories",
    "EXPERIMENTS",
    "EXPLICIT_ONLY",
    "corpus_kernel_names",
    "publish_corpus_model",
    "run_all",
    "run_e13",
    "run_experiment",
    "ascii_table",
    "fail_summary",
    "text_scatter",
]
