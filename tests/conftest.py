import pytest

from hazgate.datafiles import data_path
from hazgate.executive import ExecConfig
from hazgate.model import load_model


@pytest.fixture(scope="module")
def mammobot():
    return load_model(data_path("mammobot.proc"))


@pytest.fixture(scope="module")
def config():
    return ExecConfig.load(data_path("exec_config.json"))
