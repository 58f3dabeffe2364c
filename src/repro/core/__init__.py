"""Value predictors — the paper's primary contribution.

Two families are implemented, exactly following Section 2 of the paper:

* **Computational predictors** compute the next value from previous values:
  :class:`LastValuePredictor` (identity function, with optional hysteresis)
  and the stride family (:class:`SimpleStridePredictor`,
  :class:`CounterStridePredictor`, :class:`TwoDeltaStridePredictor`).
* **Context-based predictors** learn which values follow a finite ordered
  sequence of previous values: :class:`FcmPredictor` (a single order-*k*
  finite context method) and :class:`BlendedFcmPredictor` (orders 0..*k*
  combined with blending and lazy exclusion — the configuration the paper
  simulates).

:class:`HybridPredictor` combines component predictors through a chooser, the
direction the paper's Section 4.2 motivates for future work.

All predictors are *unbounded* (one table entry per static PC, no aliasing)
and are updated immediately with the true value after each prediction,
matching the paper's idealised methodology.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": ("ValuePredictor", "Prediction", "PredictorStats"),
        "last_value": ("LastValuePredictor",),
        "stride": ("SimpleStridePredictor", "CounterStridePredictor", "TwoDeltaStridePredictor"),
        "fcm": ("FcmPredictor",),
        "blending": ("BlendedFcmPredictor",),
        "hybrid": ("HybridPredictor", "ChooserPolicy", "PcChooser", "CategoryChooser", "OracleChooser"),
        "registry": ("available_predictors", "create_predictor", "register_predictor", "PAPER_PREDICTORS"),
    },
)
