"""Per-measurement RSSI anomaly detection on transition-field graphs."""

__version__ = "0.1.0"

from .trace import (TraceSchema, RssiTrace, DEFAULT_SCHEMA, ingest_raw_log,
                    synthesize_clean, normalize)
from .inject import (AnomalyKind, InjectionParams, LabeledTrace,
                     inject_anomaly, build_dataset)
from .mtf_graph import TsGraph, transform
from .gat_model import (GatLayerConfig, GatModel, build_model, count_parameters,
                        model_forward, predict, save_checkpoint, load_checkpoint)
from .train import (TrainConfig, ClassWeights, stratified_shuffle_split,
                    class_weights, bce_targets, weighted_bce, fit, run_cross_validation)
from .metrics import (ConfusionCounts, EvalReport, confusion,
                      precision_recall_f1, aggregate, anomalous_runs)

__all__ = [name for name in dir() if not name.startswith("_")]
