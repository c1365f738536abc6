"""Opportunistic interference alignment with 1-bit feedback.

Numerical library and experiment harness for the 3-cell MIMO
interference channel: Grassmannian geometry of the user-selection
metric, threshold design for the 1-bit quantizer, an
interference-alignment baseline with limited feedback, and a FLOP-count
model of the feedback workloads.
"""

from .channel import (ChannelSet, cell_metrics, generate_channels,
                      interference_covariance, interferer_indices, postfilter,
                      served_links, user_rate)
from .complexity import (FlopReport, flops_ia_individual, flops_ia_joint,
                         flops_oia_1bit)
from .errors import (ConfigError, DegenerateChannel, IoError, LambertDomain,
                     OddBitSplit, OiaSimError, ShapeMismatch, TooFewUsers,
                     UnknownExperiment)
from .grassmann import (MAX_D, ball_volume, metric_cdf, quantization_bound,
                        support_edge)
from .harness import (ExperimentConfig, EXPERIMENTS, ResultRow, design_threshold,
                      make_config, run_experiment, run_trial, run_trials,
                      write_csv)
from .ia import closed_form_ia, feedback_mode, ia_link_rates, quantized_channel_set
from .oia import (expected_eligible, expected_metric_one_bit,
                  expected_metric_upper_bound, outage_probability,
                  select_conventional, select_one_bit)
from .threshold import (lambert_w, min_expected_metric_d1, optimal_threshold_d1,
                        threshold_asymptotic, threshold_lambert, threshold_numeric)

__version__ = "0.1.0"
