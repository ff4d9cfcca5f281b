"""Fragment-based named entity recognition with a lexicon-memory model."""
import ctypes

__version__ = "0.1.0"


def _keep_freed_memory():
    """Keep the memory numpy frees in the process for the next step.

    With glibc's defaults each training step's temporaries are mapped, or
    trimmed from the heap top, and given back to the kernel when freed, so
    the next step faults the same pages in again (about 35k minor faults per
    benchmark pass). Setting either threshold switches off glibc's dynamic
    adjustment of both, so set both: mmap only above 32 MiB (glibc's
    maximum), trim only above 256 MiB. Without ``mallopt`` (macOS) nothing
    changes.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD
        mallopt(-1, 256 << 20)      # M_TRIM_THRESHOLD


_keep_freed_memory()
