"""Shared physical and protocol constants for the reproduction.

Values mirror the implementation choices stated in the paper
("Underwater 3D positioning on smart devices", SIGCOMM 2023):

* audio sampling rate 44.1 kHz, acoustic band 1-5 kHz,
* OFDM symbol of 1920 samples with a 540-sample cyclic prefix,
* four preamble symbols signed by the PN sequence ``[1, 1, -1, 1]``,
* protocol timing ``delta0=600 ms``, ``t_packet=278 ms``,
  ``t_guard=42 ms``, ``delta1=320 ms``,
* dual microphones separated by 16 cm,
* auto-correlation detection threshold 0.35 and direct-path peak margin
  ``lambda = 0.2``,
* outlier detection stress threshold 1.5 m, improvement ratio 0.9 and at
  most 3 dropped links.
"""

# ---------------------------------------------------------------------------
# Audio front end
# ---------------------------------------------------------------------------

#: Nominal audio sampling rate of the smart devices (Hz).
SAMPLE_RATE = 44_100

#: Lower edge of the usable underwater acoustic band on smart devices (Hz).
BAND_LOW_HZ = 1_000.0

#: Upper edge of the usable underwater acoustic band on smart devices (Hz).
BAND_HIGH_HZ = 5_000.0

#: OFDM symbol length in samples (also the FFT size used by the modem).
OFDM_SYMBOL_LEN = 1_920

#: Cyclic-prefix length inserted before each OFDM symbol (samples).
CYCLIC_PREFIX_LEN = 540

#: Signs applied to the four identical preamble OFDM symbols.
PREAMBLE_PN_SIGNS = (1, 1, -1, 1)

#: Number of OFDM symbols concatenated in the ranging preamble.
PREAMBLE_NUM_SYMBOLS = len(PREAMBLE_PN_SIGNS)

#: Detection threshold on the normalised auto-correlation statistic.
AUTOCORR_THRESHOLD = 0.35

#: Conservative margin added to the per-channel noise floor when searching
#: for the direct path (the paper's ``lambda``), on the normalised channel.
#: Calibrated against the *amplitude-scale* noise floor (mean |tail|, see
#: ``repro.signals.peaks.noise_floor``), not the paper's literal mean
#: power, which would be quadratically smaller on a [0, 1] channel.
DIRECT_PATH_MARGIN = 0.2

#: Number of trailing channel taps used to estimate the channel noise floor.
NOISE_FLOOR_TAPS = 100

# ---------------------------------------------------------------------------
# Device geometry
# ---------------------------------------------------------------------------

#: Separation between the two microphones on the phone (metres).
MIC_SEPARATION_M = 0.16

# ---------------------------------------------------------------------------
# Sound speed
# ---------------------------------------------------------------------------

#: Default speed of sound underwater used when no environment model is
#: supplied (m/s). Matches fresh water around 17 C at shallow depth.
DEFAULT_SOUND_SPEED = 1_480.0

#: Speed of sound in air at 20 C (m/s), used by self-calibration where the
#: speaker-to-own-microphone path is through the device body / air gap.
SOUND_SPEED_AIR = 343.0

# ---------------------------------------------------------------------------
# Distributed timestamp protocol (paper section 2.3)
# ---------------------------------------------------------------------------

#: Leader-to-first-slot processing margin Delta_0 (seconds).
DELTA0_S = 0.600

#: Acoustic packet duration T_packet (seconds).
T_PACKET_S = 0.278

#: Guard interval T_guard (seconds), the paper's 42 ms.  It spans the
#: two-way propagation time to MAX_RANGE_M only for sound speeds of at
#: least 2 * 32 m / 42 ms = 1524 m/s; at DEFAULT_SOUND_SPEED it spans
#: 1480 m/s * 42 ms / 2 = 31.1 m, so slots at the full range can overlap
#: by up to ~1 ms.
T_GUARD_S = 0.042

#: TDM slot pitch Delta_1 = T_packet + T_guard (seconds).
DELTA1_S = T_PACKET_S + T_GUARD_S

#: Maximum two-way propagation time encoded by the uplink payload (seconds);
#: corresponds to a maximum device separation of about 32 m.
TWO_TAU_MAX_S = 0.042

#: Maximum operating range assumed by the protocol (metres).
MAX_RANGE_M = 32.0

# ---------------------------------------------------------------------------
# Uplink communication system (paper section 2.4)
# ---------------------------------------------------------------------------

#: Depth quantisation step for the uplink report (metres).
DEPTH_RESOLUTION_M = 0.2

#: Bits used to encode a depth value in [0, 40] m at 0.2 m resolution.
DEPTH_BITS = 8

#: Timestamp offsets are reported at this sample resolution.
TIMESTAMP_SAMPLE_RESOLUTION = 2

#: Bits used to encode one timestamp offset.
TIMESTAMP_BITS = 10

#: Per-device uplink bit rate (bits/second) after channel coding.
UPLINK_BITRATE_BPS = 100.0

#: Convolutional code rate used on the uplink payload.
UPLINK_CODE_RATE = 2.0 / 3.0

# ---------------------------------------------------------------------------
# Topology-based localization (paper section 2.1)
# ---------------------------------------------------------------------------

#: Normalised-stress threshold (metres) above which the solution is assumed
#: to contain outlier links (Algorithm 1). The paper uses the constant 1.5
#: for its (unspecified) per-link stress normalisation; our normalisation is
#: the RMS per-link residual ``sqrt(S / n_links)``, for which 0.5 m separates
#: clean networks (<= ~0.35 m under deployment noise) from networks with an
#: occlusion-grade outlier (>= ~0.6 m) in the calibrated simulator. See
#: DESIGN.md section 2 ("Algorithm 1 calibration").
OUTLIER_STRESS_THRESHOLD_M = 0.5

#: Required relative stress reduction for a dropped subset to be accepted.
OUTLIER_IMPROVEMENT_RATIO = 0.9

#: Maximum number of links dropped by the outlier search.
MAX_OUTLIER_LINKS = 3

# ---------------------------------------------------------------------------
# Depth sensing
# ---------------------------------------------------------------------------

#: Average density of (fresh) water used for pressure-to-depth (kg/m^3).
WATER_DENSITY = 997.0

#: Gravitational acceleration (m/s^2).
GRAVITY = 9.81

#: Atmospheric pressure at sea level (Pa).
ATMOSPHERIC_PRESSURE_PA = 101_325.0

#: Recreational dive depth limit assumed by the uplink encoding (metres).
MAX_DEPTH_M = 40.0
