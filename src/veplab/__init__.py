"""Steady-state VEP lab in software: stimulus schedules, synthetic EEG,
and the offline SSVEP/SSMVEP analysis pipeline."""

from .errors import DegenerateDataError, InputError, ParseError, VeplabError
from .model import (
    ChannelLayout,
    MarkerStream,
    Recording,
    TrialEpoch,
    derive_virtual_channel,
    extract_epochs,
    load_markers,
    load_recording,
    save_markers,
    save_recording,
)
from .stimgen import (
    FrameSchedule,
    LuminanceImage,
    StimulusSpec,
    build_frame_schedule,
    radial_phase,
    render_checkerboard,
    render_gabor,
    validate_spec,
)
from .synth import SynthConfig, SynthProtocol, TaskProtocol, default_protocol, synth_dataset, synth_trial
from .dsp import BandpassSpec, bandpass, remove_line_noise, suppress_artifacts
from .spectral import PowerSpectrum, SnrSpectrum, psd_boxcar, snr_at, snr_spectrum
from .decode import (
    Decision,
    FilterBankConfig,
    ReferenceSet,
    cca_corr,
    default_filter_bank,
    detect_onset,
    evaluate_accuracy,
    fbcca_decide,
    make_references,
)
from .stats import (
    RmAnovaResult,
    VasfScore,
    holm_posthoc,
    paired_t,
    rm_anova,
    score_vasf,
)
from .pipeline import (
    PipelineConfig,
    Report,
    analyze_dataset,
    config_for_task,
    emit_report,
)

__version__ = "0.1.0"
