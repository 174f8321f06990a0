"""Nano-grid fleet simulator: outage risk scoring, Monte Carlo feeder
outages, islanded dispatch, and reserve/ramp capacity accounting."""

from .fleet import (DeferrableTask, ElectricVehicle, Feeder, Fleet,
                    HourlyProfile, HvacAsset, NGrid, StorageUnit, validate_fleet)
from .harness import (FleetSeries, OutageEvent, Scenario, SimulationReport,
                      ValidationError, emit_report, run_replication,
                      run_simulation, sample_outages, sweep_repair_time,
                      sweep_reports, validate_scenario)
from .metrics import (LabeledScore, MetricReport, final_metric, metric_report,
                      prc_auc, precision_recall_f1, roc_auc)
from .sor import (BoostedModel, FeatureRow, SorTable, Stump, build_sor_table,
                  evaluate, load_model, load_sor_table, save_model,
                  save_sor_table, score, train)

__version__ = "0.1.0"
