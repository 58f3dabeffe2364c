"""Value-sequence taxonomy of Section 1.1 of the paper.

The paper classifies value sequences into constant (C), stride (S),
non-stride (NS), repeated stride (RS) and repeated non-stride (RNS)
sequences, and analyses each predictor's *learning time* (LT — values
observed before the first correct prediction) and *learning degree* (LD —
the fraction of correct predictions after the first correct one) on each
class.  This package provides generators for those sequence classes, a
classifier, and the LT/LD measurement used to regenerate Table 1 and
Figure 2.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "generators": (
            "SequenceClass",
            "constant_sequence",
            "stride_sequence",
            "non_stride_sequence",
            "repeated_stride_sequence",
            "repeated_non_stride_sequence",
            "generate_sequence",
        ),
        "classify": ("classify_sequence",),
        "analysis": ("LearningProfile", "measure_learning", "predictor_behaviour_table"),
    },
)
