"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A scenario, device, or protocol parameter is invalid."""


class SignalError(ReproError):
    """A waveform could not be generated or parsed."""


class DecodingError(SignalError):
    """A payload failed to demodulate or decode."""


class ProtocolError(ReproError):
    """The distributed timestamp protocol reached an invalid state."""


class LocalizationError(ReproError):
    """The topology solver could not produce a valid embedding."""
