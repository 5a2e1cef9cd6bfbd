import numpy as np

from hopmp.controls import ConstantControl
from tests_support import AnalyticCurve


class CurveWithControl:
    """Wrap an analytic curve so operations expecting a trajectory
    (jet access plus an attached control) accept it."""

    def __init__(self, curve: AnalyticCurve, control=None, horizon: float = 1.0):
        self._curve = curve
        self.horizon = horizon
        self.control = control or ConstantControl(np.zeros(1), horizon)

    def jet(self, t, order):
        return self._curve.jet(t, order)

    def terminal_jet(self, order):
        return self._curve.jet(self.horizon, order)
